//===- support/Json.cpp - Minimal JSON value parser -----------------------===//
//
// Part of the MBA-Solver reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mba::json {
namespace {

constexpr size_t kMaxDepth = 128;

} // namespace

/// Recursive-descent parser over a string_view. Tracks a byte offset for
/// error messages and bounds nesting depth so malformed input cannot blow
/// the stack.
class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool run(Value &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing content after document");
    return true;
  }

private:
  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;

  bool fail(const char *Msg) {
    if (Error) {
      *Error = Msg;
      *Error += " at offset ";
      *Error += std::to_string(Pos);
    }
    return false;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (Text.compare(Pos, N, Word) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  bool parseValue(Value &Out, size_t Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.Which = Value::KString;
      return parseString(Out.Str);
    case 't':
      Out.Which = Value::KBool;
      Out.Flag = true;
      return literal("true");
    case 'f':
      Out.Which = Value::KBool;
      Out.Flag = false;
      return literal("false");
    case 'n':
      Out.Which = Value::KNull;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(Value &Out, size_t Depth) {
    Out.Which = Value::KObject;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after key");
      skipWs();
      Value Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Mbrs.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &Out, size_t Depth) {
    Out.Which = Value::KArray;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      skipWs();
      Value Element;
      if (!parseValue(Element, Depth + 1))
        return false;
      Out.Elements.push_back(std::move(Element));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= unsigned(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        // UTF-8 encode the code point. Surrogate pairs are not recombined
        // (our exporters never emit them); each half encodes separately.
        if (Code < 0x80) {
          Out += char(Code);
        } else if (Code < 0x800) {
          Out += char(0xC0 | (Code >> 6));
          Out += char(0x80 | (Code & 0x3F));
        } else {
          Out += char(0xE0 | (Code >> 12));
          Out += char(0x80 | ((Code >> 6) & 0x3F));
          Out += char(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    std::string Spelling(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double V = std::strtod(Spelling.c_str(), &End);
    if (End != Spelling.c_str() + Spelling.size()) {
      Pos = Start;
      return fail("malformed number");
    }
    Out.Which = Value::KNumber;
    Out.Num = V;
    return true;
  }
};

bool parse(std::string_view Text, Value &Out, std::string *Error) {
  Out = Value();
  Parser P(Text, Error);
  return P.run(Out);
}

bool parseFile(const std::string &Path, Value &Out, std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::string Text;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return parse(Text, Out, Error);
}

void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

} // namespace mba::json
