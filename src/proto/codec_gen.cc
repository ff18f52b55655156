#include "proto/codec_gen.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "proto/codec_generated.h"
#include "proto/codec_table.h"

// C++ emitter for schema-specialized codecs. The compiled codec tables
// are the IR: every constant baked into the emitted text (tag bytes,
// offsets, hasbit words/masks, widths, sub-table links) comes from the
// same CodecTableSet the table interpreter executes, and every emitted
// code path mirrors one interpreter path (parser.cc / serializer.cc)
// statement-for-statement where CostSink events are concerned. The
// differential suites then verify the equivalence the construction
// already implies.
//
// Emitted parse shape per message (the protoc idiom):
//
//   dispatch:  full varint tag decode -> switch (field number)
//   case N:    wire-type check -> goto f_N (fast) / s_N (lenient)
//   f_N:       straight-line decode with constant offsets, then
//              expected-next-tag chaining (TryTag1/2) to f_self/f_next
//   s_N:       out-of-line wire-type-lenient fallback (gensup)
//
// Serialize emits two functions per message — Size_k (sizing pass with
// pre-order nested-size memoization) and Write_k (write pass consuming
// the memo) — exactly mirroring the interpreter's two passes.

namespace protoacc::proto {

namespace {

/// printf-style line appender for the emitted source.
class Src
{
  public:
    void
    P(const char *fmt, ...)
    {
        char buf[1024];
        va_list ap;
        va_start(ap, fmt);
        const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        PA_CHECK(n >= 0 && n < static_cast<int>(sizeof(buf)));
        out_.append(buf, static_cast<size_t>(n));
        out_.push_back('\n');
    }

    std::string &str() { return out_; }

  private:
    std::string out_;
};

const char *
FieldOpName(FieldOp op)
{
    switch (op) {
      case FieldOp::kFixed32: return "kFixed32";
      case FieldOp::kFixed64: return "kFixed64";
      case FieldOp::kInt32: return "kInt32";
      case FieldOp::kUint32: return "kUint32";
      case FieldOp::kVarint64: return "kVarint64";
      case FieldOp::kSint32: return "kSint32";
      case FieldOp::kSint64: return "kSint64";
      case FieldOp::kBool: return "kBool";
      case FieldOp::kString: return "kString";
      case FieldOp::kBytes: return "kBytes";
      case FieldOp::kMessage: return "kMessage";
    }
    return "?";
}

const char *
WireTypeName(WireType wt)
{
    switch (wt) {
      case WireType::kVarint: return "kVarint";
      case WireType::kFixed64: return "kFixed64";
      case WireType::kLengthDelimited: return "kLengthDelimited";
      case WireType::kStartGroup: return "kStartGroup";
      case WireType::kEndGroup: return "kEndGroup";
      case WireType::kFixed32: return "kFixed32";
    }
    return "?";
}

bool
IsScalarOp(FieldOp op)
{
    switch (op) {
      case FieldOp::kString:
      case FieldOp::kBytes:
      case FieldOp::kMessage:
        return false;
      default:
        return true;
    }
}

/// C-escape arbitrary bytes into string-literal form. Always uses
/// 3-digit octal for non-printables so a following digit can't extend
/// the escape.
std::string
CEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(static_cast<char>(c));
        } else if (c == '?') {
            // Dodge trigraph sequences.
            out += "\\?";
        } else if (c >= 0x20 && c < 0x7f) {
            out.push_back(static_cast<char>(c));
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\%03o", c);
            out += buf;
        }
    }
    return out;
}

/// "0x08" / "0xd2, 0x04" — the pre-encoded tag bytes as WriteTag args.
std::string
TagArgs(const CodecEntry &e)
{
    std::string out;
    for (uint8_t i = 0; i < e.tag_len; ++i) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "0x%02x", e.tag_bytes[i]);
        if (i > 0)
            out += ", ";
        out += buf;
    }
    return out;
}

/// Hasbit word byte offset of @p e within the object.
uint32_t
HasbitWordOffset(const CodecTable &t, const CodecEntry &e)
{
    return t.hasbits_offset + 4u * (e.hasbit_index >> 5);
}

uint32_t
HasbitMask(const CodecEntry &e)
{
    return 1u << (e.hasbit_index & 31);
}

/// The tag's wire type (low 3 bits of its first pre-encoded byte).
uint32_t
TagWire(const CodecEntry &e)
{
    return e.tag_bytes[0] & 7u;
}

/// Local-variable C type for a slot of @p width bytes.
const char *
SlotType(uint8_t width)
{
    switch (width) {
      case 1: return "uint8_t";
      case 4: return "uint32_t";
      default: return "uint64_t";
    }
}

/// Parse-side conversion: wire varint (uint64_t expr @p wire) to the
/// in-memory bit pattern, as a uint64_t-convertible expression
/// (parser.cc's VarintMemoryValue, constant-folded on op).
std::string
MemoryValueExpr(FieldOp op, const char *wire)
{
    char buf[160];
    switch (op) {
      case FieldOp::kInt32:
      case FieldOp::kUint32:
        std::snprintf(buf, sizeof(buf), "static_cast<uint32_t>(%s)", wire);
        break;
      case FieldOp::kSint32:
        std::snprintf(buf, sizeof(buf),
                      "static_cast<uint32_t>(ZigZagDecode32("
                      "static_cast<uint32_t>(%s)))",
                      wire);
        break;
      case FieldOp::kSint64:
        std::snprintf(buf, sizeof(buf),
                      "static_cast<uint64_t>(ZigZagDecode64(%s))", wire);
        break;
      case FieldOp::kBool:
        std::snprintf(buf, sizeof(buf), "(%s != 0 ? 1u : 0u)", wire);
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%s", wire);
        break;
    }
    return buf;
}

/// Serialize-side conversion: in-memory value (variable @p v, typed by
/// slot width) to the wire varint (serializer.cc's VarintWireValue,
/// constant-folded on op). kBool is handled by callers (constant size).
std::string
WireValueExpr(FieldOp op, const char *v)
{
    char buf[160];
    switch (op) {
      case FieldOp::kInt32:
        std::snprintf(buf, sizeof(buf),
                      "static_cast<uint64_t>(static_cast<int64_t>("
                      "static_cast<int32_t>(%s)))",
                      v);
        break;
      case FieldOp::kSint32:
        std::snprintf(buf, sizeof(buf),
                      "ZigZagEncode32(static_cast<int32_t>(%s))", v);
        break;
      case FieldOp::kSint64:
        std::snprintf(buf, sizeof(buf),
                      "ZigZagEncode64(static_cast<int64_t>(%s))", v);
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%s", v);
        break;
    }
    return buf;
}

/// Name of the default-string constant for singular string/bytes entry
/// @p e of message @p k (emitted only when the default is non-empty).
std::string
DefName(int k, const CodecEntry &e)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "kDef_%d_%u", k, e.number);
    return buf;
}

// ---------------------------------------------------------------------
// Parse emission
// ---------------------------------------------------------------------

/// Emit the expected-next-tag chain after entry @p i's fast handler:
/// repeated entries first retry themselves, then the next entry in
/// field order; tags longer than 2 bytes fall back to full dispatch.
void
EmitChain(Src &s, const CodecTable &t, size_t i)
{
    std::vector<const CodecEntry *> targets;
    if (t.entries[i].repeated())
        targets.push_back(&t.entries[i]);
    if (i + 1 < t.entries.size())
        targets.push_back(&t.entries[i + 1]);
    for (const CodecEntry *e : targets) {
        if (e->tag_len == 1)
            s.P("    if (r.TryTag1(%s))", TagArgs(*e).c_str());
        else if (e->tag_len == 2)
            s.P("    if (r.TryTag2(%s))", TagArgs(*e).c_str());
        else
            break;
        s.P("        goto f_%u;", e->number);
    }
    s.P("    goto dispatch;");
}

/// Emit the fast-path handler block (label f_N) for entry @p i.
void
EmitParseFast(Src &s, const CodecTableSet &set, const CodecTable &t,
              size_t i)
{
    const CodecEntry &e = t.entries[i];
    const uint32_t woff = HasbitWordOffset(t, e);
    const uint32_t mask = HasbitMask(e);
    s.P("  f_%u:  // %s.%s", e.number, t.desc->name().c_str(),
        e.field->name.c_str());
    s.P("    {");
    s.P("        if constexpr (S)");
    s.P("            c.sink->OnFieldDispatch();");

    switch (e.op) {
      case FieldOp::kString:
      case FieldOp::kBytes: {
        s.P("        uint64_t len;");
        s.P("        if (!r.ReadVal(&len))");
        s.P("            return ParseStatus::kMalformedVarint;");
        s.P("        if (r.remaining() < len)");
        s.P("            return ParseStatus::kTruncated;");
        s.P("        const char *sp = "
            "reinterpret_cast<const char *>(r.pos());");
        if (e.validate_utf8()) {
            s.P("        if (!IsValidUtf8(sp, "
                "static_cast<size_t>(len)))");
            s.P("            return ParseStatus::kInvalidUtf8;");
        }
        s.P("        if (!c.Charge(len))");
        s.P("            return ParseStatus::kResourceExhausted;");
        s.P("        if constexpr (S) {");
        s.P("            c.sink->OnAlloc(len > "
            "ArenaString::kInlineCapacity");
        s.P("                                ? len + sizeof(ArenaString)");
        s.P("                                : sizeof(ArenaString));");
        s.P("            c.sink->OnMemcpy(len);");
        s.P("        }");
        if (e.repeated()) {
            s.P("        gensup::AppendString(c, obj, %uu, sp, "
                "static_cast<size_t>(len));",
                e.offset);
            s.P("        gensup::SetHasBit(obj, %uu, 0x%xu);", woff, mask);
        } else {
            s.P("        gensup::SetStringValue(c, obj, %uu, sp, "
                "static_cast<size_t>(len));",
                e.offset);
            s.P("        gensup::SetHasBit(obj, %uu, 0x%xu);", woff, mask);
        }
        s.P("        r.Advance(static_cast<size_t>(len));");
        break;
      }
      case FieldOp::kMessage: {
        const CodecTable &sub_t = set.table(e.sub_table);
        s.P("        uint64_t len;");
        s.P("        if (!r.ReadVal(&len))");
        s.P("            return ParseStatus::kMalformedVarint;");
        s.P("        if (r.remaining() < len)");
        s.P("            return ParseStatus::kTruncated;");
        s.P("        const uint8_t *bp = r.pos();");
        s.P("        r.Advance(static_cast<size_t>(len));");
        s.P("        if (!c.Charge(%uu))", sub_t.object_size);
        s.P("            return ParseStatus::kResourceExhausted;");
        if (e.repeated()) {
            s.P("        char *sub = gensup::AppendSub(c, obj, %uu, %d, "
                "%uu);",
                e.offset, e.sub_table, sub_t.object_size);
        } else {
            s.P("        char *sub = gensup::GetOrCreateSub(c, obj, %uu, "
                "%d, %uu);",
                e.offset, e.sub_table, sub_t.object_size);
        }
        s.P("        gensup::SetHasBit(obj, %uu, 0x%xu);", woff, mask);
        s.P("        if constexpr (S)");
        s.P("            c.sink->OnAlloc(%uu);", sub_t.object_size);
        s.P("        gensup::GenReader<S> body(bp, bp + len, c.sink);");
        s.P("        st = Parse_%d<S>(c, body, sub, depth + 1);", e.sub_table);
        s.P("        if (st != ParseStatus::kOk)");
        s.P("            return st;");
        break;
      }
      default: {  // scalars
        const bool packed_tag =
            TagWire(e) == static_cast<uint32_t>(WireType::kLengthDelimited);
        const char *reader = "r";
        if (packed_tag) {
            // Packed run: bounded body reader + per-element loop
            // (parser.cc's ParsePackedRepeated shape).
            s.P("        uint64_t plen;");
            s.P("        if (!r.ReadVal(&plen))");
            s.P("            return ParseStatus::kMalformedVarint;");
            s.P("        if (r.remaining() < plen)");
            s.P("            return ParseStatus::kTruncated;");
            s.P("        gensup::GenReader<S> body(r.pos(), "
                "r.pos() + plen, c.sink);");
            s.P("        r.Advance(static_cast<size_t>(plen));");
            s.P("        while (!body.at_end()) {");
            reader = "body";
        }
        const std::string ind = packed_tag ? "    " : "";
        std::string bits;
        switch (e.wire_type) {
          case WireType::kVarint:
            s.P("        %suint64_t wire;", ind.c_str());
            s.P("        %sif (!%s.ReadVal(&wire))", ind.c_str(), reader);
            s.P("        %s    return ParseStatus::kMalformedVarint;",
                ind.c_str());
            bits = MemoryValueExpr(e.op, "wire");
            break;
          case WireType::kFixed32:
            s.P("        %suint32_t v;", ind.c_str());
            s.P("        %sif (!%s.ReadFixed32(&v))", ind.c_str(), reader);
            s.P("        %s    return ParseStatus::kTruncated;",
                ind.c_str());
            bits = "v";
            break;
          default:  // kFixed64
            s.P("        %suint64_t v;", ind.c_str());
            s.P("        %sif (!%s.ReadFixed64(&v))", ind.c_str(), reader);
            s.P("        %s    return ParseStatus::kTruncated;",
                ind.c_str());
            bits = "v";
            break;
        }
        if (e.repeated()) {
            s.P("        %sif (!c.Charge(%uu))", ind.c_str(), e.mem_width);
            s.P("        %s    return ParseStatus::kResourceExhausted;",
                ind.c_str());
            s.P("        %sgensup::AppendBits(c, obj, %uu, %uu, 0x%xu,",
                ind.c_str(), e.offset, woff, mask);
            s.P("        %s                   %s, %uu);", ind.c_str(),
                bits.c_str(), e.mem_width);
        } else {
            s.P("        const %s v2 = static_cast<%s>(%s);",
                SlotType(e.mem_width), SlotType(e.mem_width), bits.c_str());
            s.P("        std::memcpy(obj + %uu, &v2, %u);", e.offset,
                e.mem_width);
            s.P("        gensup::SetHasBit(obj, %uu, 0x%xu);", woff, mask);
        }
        if (packed_tag)
            s.P("        }");
        break;
      }
    }
    s.P("    }");
    EmitChain(s, t, i);
}

void
EmitParse(Src &s, const CodecTableSet &set, int k)
{
    const CodecTable &t = set.table(k);
    s.P("template <bool S>");
    s.P("ParseStatus");
    s.P("Parse_%d(gensup::GenParseCtx &c, gensup::GenReader<S> &r, "
        "char *obj, const int depth)",
        k);
    s.P("{");
    s.P("    (void)obj;");
    s.P("    if (depth > c.max_depth)");
    s.P("        return ParseStatus::kDepthExceeded;");
    s.P("    if constexpr (S)");
    s.P("        c.sink->OnMessageBegin();");
    s.P("    uint64_t tag;");
    s.P("    ParseStatus st;");
    s.P("    (void)st;");
    s.P("    const uint8_t *tag_start;");
    s.P("  dispatch:");
    s.P("    if (r.at_end())");
    s.P("        goto done;");
    s.P("    tag_start = r.pos();");
    s.P("    (void)tag_start;");
    s.P("    if (!r.ReadTag(&tag))");
    s.P("        return ParseStatus::kMalformedVarint;");
    s.P("    switch (static_cast<uint32_t>(tag >> 3)) {");
    s.P("      case 0u:");
    s.P("        return ParseStatus::kInvalidFieldNumber;");
    for (size_t i = 0; i < t.entries.size(); ++i) {
        const CodecEntry &e = t.entries[i];
        s.P("      case %uu:", e.number);
        s.P("        if ((tag & 7u) == %uu)", TagWire(e));
        s.P("            goto f_%u;", e.number);
        if (IsScalarOp(e.op)) {
            s.P("        goto s_%u;", e.number);
        } else {
            // Bytes-like / message fields reject any other wire type
            // (after the dispatch event, as the interpreter does).
            s.P("        if constexpr (S)");
            s.P("            c.sink->OnFieldDispatch();");
            s.P("        return ParseStatus::kInvalidWireType;");
        }
    }
    s.P("      default:");
    s.P("        st = gensup::PreserveUnknownField<S>(c, r, obj, %uu,",
        t.desc->layout().unknown_offset);
    s.P("            tag_start, static_cast<uint32_t>(tag >> 3),");
    s.P("            static_cast<uint32_t>(tag & 7u));");
    s.P("        if (st != ParseStatus::kOk)");
    s.P("            return st;");
    s.P("        goto dispatch;");
    s.P("    }");
    for (size_t i = 0; i < t.entries.size(); ++i)
        EmitParseFast(s, set, t, i);
    for (size_t i = 0; i < t.entries.size(); ++i) {
        const CodecEntry &e = t.entries[i];
        if (!IsScalarOp(e.op))
            continue;
        s.P("  s_%u:", e.number);
        s.P("    if constexpr (S)");
        s.P("        c.sink->OnFieldDispatch();");
        s.P("    st = gensup::LenientField<S>(c, r, obj, kMeta_%d[%zu],", k,
            i);
        s.P("                                static_cast<uint32_t>"
            "(tag & 7u));");
        s.P("    if (st != ParseStatus::kOk)");
        s.P("        return st;");
        s.P("    goto dispatch;");
    }
    s.P("  done:");
    s.P("    if constexpr (S)");
    s.P("        c.sink->OnMessageEnd();");
    s.P("    return ParseStatus::kOk;");
    s.P("}");
    s.P("");
}

// ---------------------------------------------------------------------
// Sizing emission
// ---------------------------------------------------------------------

void
EmitSizeField(Src &s, const CodecTable &t, int k, const CodecEntry &e)
{
    const uint32_t woff = HasbitWordOffset(t, e);
    const uint32_t mask = HasbitMask(e);
    s.P("    // %s.%s", t.desc->name().c_str(), e.field->name.c_str());

    if (!e.repeated()) {
        s.P("    if (gensup::TestHasBit(obj, %uu, 0x%xu)) {", woff, mask);
        s.P("        if constexpr (S)");
        s.P("            c.sink->OnByteSizeField();");
        switch (e.op) {
          case FieldOp::kString:
          case FieldOp::kBytes: {
            s.P("        const ArenaString *sv = gensup::LoadStr(obj, "
                "%uu);",
                e.offset);
            if (e.field->default_string.empty()) {
                s.P("        const size_t len = sv != nullptr ? "
                    "static_cast<size_t>(sv->size) : 0;");
            } else {
                s.P("        const size_t len = sv != nullptr ? "
                    "static_cast<size_t>(sv->size) : sizeof(%s) - 1;",
                    DefName(k, e).c_str());
            }
            s.P("        total += %uu + "
                "static_cast<size_t>(VarintSize(len)) + len;",
                e.tag_len);
            break;
          }
          case FieldOp::kMessage:
            s.P("        const char *sub = gensup::LoadPtr(obj, %uu);",
                e.offset);
            s.P("        size_t len = 0;");
            s.P("        if (sub != nullptr) {");
            s.P("            const size_t slot = c.subs->size();");
            s.P("            c.subs->push_back(0);");
            s.P("            len = Size_%d<S>(sub, c);", e.sub_table);
            s.P("            (*c.subs)[slot] = len;");
            s.P("        }");
            s.P("        total += %uu + "
                "static_cast<size_t>(VarintSize(len)) + len;",
                e.tag_len);
            break;
          case FieldOp::kBool:
            s.P("        total += %uu;", e.tag_len + 1u);
            break;
          case FieldOp::kFixed32:
            s.P("        total += %uu;", e.tag_len + 4u);
            break;
          case FieldOp::kFixed64:
            s.P("        total += %uu;", e.tag_len + 8u);
            break;
          default: {  // varint scalars
            s.P("        %s v;", SlotType(e.mem_width));
            s.P("        std::memcpy(&v, obj + %uu, %u);", e.offset,
                e.mem_width);
            s.P("        total += %uu + static_cast<size_t>(VarintSize("
                "%s));",
                e.tag_len, WireValueExpr(e.op, "v").c_str());
            break;
          }
        }
        s.P("    }");
        s.P("    if constexpr (S)");
        s.P("        c.sink->OnHasbitsAccess(1);");
        return;
    }

    // Repeated: presence is element count, not the hasbit.
    const bool ptr_field =
        e.op == FieldOp::kString || e.op == FieldOp::kBytes ||
        e.op == FieldOp::kMessage;
    s.P("    {");
    if (ptr_field)
        s.P("        const RepeatedPtrField *rp = gensup::LoadRepPtr(obj, "
            "%uu);",
            e.offset);
    else
        s.P("        const RepeatedField *rp = gensup::LoadRep(obj, %uu);",
            e.offset);
    s.P("        if (rp != nullptr && rp->size > 0) {");
    s.P("            if constexpr (S)");
    s.P("                c.sink->OnByteSizeField();");
    s.P("            const uint32_t n = rp->size;");
    switch (e.op) {
      case FieldOp::kString:
      case FieldOp::kBytes:
        s.P("            for (uint32_t i = 0; i < n; ++i) {");
        s.P("                const auto *sv = static_cast<const "
            "ArenaString *>(rp->data[i]);");
        s.P("                const size_t len = "
            "static_cast<size_t>(sv->size);");
        s.P("                total += %uu + "
            "static_cast<size_t>(VarintSize(len)) + len;",
            e.tag_len);
        s.P("            }");
        break;
      case FieldOp::kMessage:
        s.P("            for (uint32_t i = 0; i < n; ++i) {");
        s.P("                const size_t slot = c.subs->size();");
        s.P("                c.subs->push_back(0);");
        s.P("                const size_t len = Size_%d<S>("
            "static_cast<const char *>(rp->data[i]), c);",
            e.sub_table);
        s.P("                (*c.subs)[slot] = len;");
        s.P("                total += %uu + "
            "static_cast<size_t>(VarintSize(len)) + len;",
            e.tag_len);
        s.P("            }");
        break;
      default: {
        const char *elem_size = nullptr;
        char ebuf[8];
        if (e.wire_type == WireType::kFixed32)
            elem_size = "4u";
        else if (e.wire_type == WireType::kFixed64)
            elem_size = "8u";
        else if (e.op == FieldOp::kBool)
            elem_size = "1u";
        (void)ebuf;
        if (elem_size != nullptr) {
            // Constant per-element wire size: no loop.
            s.P("            const size_t payload = "
                "static_cast<size_t>(n) * %s;",
                elem_size);
        } else {
            s.P("            const char *base = static_cast<const char *>"
                "(rp->data);");
            s.P("            size_t payload = 0;");
            s.P("            for (uint32_t i = 0; i < n; ++i) {");
            s.P("                %s v;", SlotType(e.mem_width));
            s.P("                std::memcpy(&v, base + %uu * i, %u);",
                e.mem_width, e.mem_width);
            s.P("                payload += static_cast<size_t>(VarintSize("
                "%s));",
                WireValueExpr(e.op, "v").c_str());
            s.P("            }");
        }
        if (e.packed()) {
            s.P("            c.subs->push_back(payload);");
            s.P("            total += %uu + "
                "static_cast<size_t>(VarintSize(payload)) + payload;",
                e.tag_len);
        } else {
            s.P("            total += payload + "
                "static_cast<size_t>(n) * %uu;",
                e.tag_len);
        }
        break;
      }
    }
    s.P("        }");
    s.P("    }");
    s.P("    if constexpr (S)");
    s.P("        c.sink->OnHasbitsAccess(1);");
}

void
EmitSize(Src &s, const CodecTableSet &set, int k)
{
    const CodecTable &t = set.table(k);
    s.P("template <bool S>");
    s.P("size_t");
    s.P("Size_%d(const char *obj, gensup::GenSizeCtx &c)", k);
    s.P("{");
    s.P("    (void)c;");
    s.P("    if constexpr (S)");
    s.P("        c.sink->OnByteSizeMessage();");
    s.P("    size_t total = 0;");
    for (const CodecEntry &e : t.entries)
        EmitSizeField(s, t, k, e);
    // Preserved unknown records re-emit verbatim; eventless constant
    // add, matching the table and reference sizing passes.
    s.P("    total += gensup::UnknownBytes(obj, %uu);",
        t.desc->layout().unknown_offset);
    s.P("    gensup::StoreCachedSize(obj, %uu, total);",
        t.cached_size_offset);
    s.P("    return total;");
    s.P("}");
    s.P("");
}

// ---------------------------------------------------------------------
// Write emission
// ---------------------------------------------------------------------

void
EmitWriteField(Src &s, const CodecTable &t, int k, const CodecEntry &e)
{
    const uint32_t woff = HasbitWordOffset(t, e);
    const uint32_t mask = HasbitMask(e);
    const std::string tag = TagArgs(e);
    s.P("    // %s.%s", t.desc->name().c_str(), e.field->name.c_str());
    s.P("    if (u != nullptr)");
    s.P("        gensup::EmitUnknownBelow<S>(w, u, &ucur, %uu);",
        e.number);
    s.P("    if constexpr (S)");
    s.P("        w.sink()->OnHasbitsAccess(1);");

    if (!e.repeated()) {
        s.P("    if (gensup::TestHasBit(obj, %uu, 0x%xu)) {", woff, mask);
        s.P("        if constexpr (S)");
        s.P("            w.sink()->OnFieldDispatch();");
        switch (e.op) {
          case FieldOp::kString:
          case FieldOp::kBytes:
            s.P("        const ArenaString *sv = gensup::LoadStr(obj, "
                "%uu);",
                e.offset);
            s.P("        w.WriteTag(%s);", tag.c_str());
            s.P("        if (sv != nullptr) {");
            s.P("            const size_t len = "
                "static_cast<size_t>(sv->size);");
            s.P("            w.WriteVarint(len);");
            s.P("            w.WriteBytes(sv->data_ptr, len);");
            s.P("        } else {");
            if (e.field->default_string.empty()) {
                s.P("            w.WriteVarint(0);");
                s.P("            w.WriteBytes(\"\", 0);");
            } else {
                s.P("            w.WriteVarint(sizeof(%s) - 1);",
                    DefName(k, e).c_str());
                s.P("            w.WriteBytes(%s, sizeof(%s) - 1);",
                    DefName(k, e).c_str(), DefName(k, e).c_str());
            }
            s.P("        }");
            break;
          case FieldOp::kMessage:
            s.P("        const char *sub = gensup::LoadPtr(obj, %uu);",
                e.offset);
            s.P("        w.WriteTag(%s);", tag.c_str());
            s.P("        if (sub == nullptr) {");
            s.P("            w.WriteVarint(0);");
            s.P("        } else {");
            s.P("            w.WriteVarint((*wc.subs)[wc.cursor++]);");
            s.P("            Write_%d<S>(sub, w, wc);", e.sub_table);
            s.P("        }");
            break;
          default: {
            s.P("        %s v;", SlotType(e.mem_width));
            s.P("        std::memcpy(&v, obj + %uu, %u);", e.offset,
                e.mem_width);
            s.P("        w.WriteTag(%s);", tag.c_str());
            if (e.op == FieldOp::kBool)
                s.P("        w.WriteVarint(v != 0 ? 1u : 0u);");
            else if (e.wire_type == WireType::kFixed32)
                s.P("        w.WriteFixed32(v);");
            else if (e.wire_type == WireType::kFixed64)
                s.P("        w.WriteFixed64(v);");
            else
                s.P("        w.WriteVarint(%s);",
                    WireValueExpr(e.op, "v").c_str());
            break;
          }
        }
        s.P("    }");
        return;
    }

    const bool ptr_field =
        e.op == FieldOp::kString || e.op == FieldOp::kBytes ||
        e.op == FieldOp::kMessage;
    s.P("    {");
    if (ptr_field)
        s.P("        const RepeatedPtrField *rp = gensup::LoadRepPtr(obj, "
            "%uu);",
            e.offset);
    else
        s.P("        const RepeatedField *rp = gensup::LoadRep(obj, %uu);",
            e.offset);
    s.P("        if (rp != nullptr && rp->size > 0) {");
    s.P("            if constexpr (S)");
    s.P("                w.sink()->OnFieldDispatch();");
    s.P("            const uint32_t n = rp->size;");
    switch (e.op) {
      case FieldOp::kString:
      case FieldOp::kBytes:
        s.P("            for (uint32_t i = 0; i < n; ++i) {");
        s.P("                const auto *sv = static_cast<const "
            "ArenaString *>(rp->data[i]);");
        s.P("                const size_t len = "
            "static_cast<size_t>(sv->size);");
        s.P("                w.WriteTag(%s);", tag.c_str());
        s.P("                w.WriteVarint(len);");
        s.P("                w.WriteBytes(sv->data_ptr, len);");
        s.P("            }");
        break;
      case FieldOp::kMessage:
        s.P("            for (uint32_t i = 0; i < n; ++i) {");
        s.P("                w.WriteTag(%s);", tag.c_str());
        s.P("                w.WriteVarint((*wc.subs)[wc.cursor++]);");
        s.P("                Write_%d<S>(static_cast<const char *>("
            "rp->data[i]), w, wc);",
            e.sub_table);
        s.P("            }");
        break;
      default: {
        s.P("            const char *base = static_cast<const char *>"
            "(rp->data);");
        if (e.packed()) {
            s.P("            w.WriteTag(%s);", tag.c_str());
            s.P("            w.WriteVarint((*wc.subs)[wc.cursor++]);");
        }
        s.P("            for (uint32_t i = 0; i < n; ++i) {");
        s.P("                %s v;", SlotType(e.mem_width));
        s.P("                std::memcpy(&v, base + %uu * i, %u);",
            e.mem_width, e.mem_width);
        if (!e.packed())
            s.P("                w.WriteTag(%s);", tag.c_str());
        if (e.op == FieldOp::kBool)
            s.P("                w.WriteVarint(v != 0 ? 1u : 0u);");
        else if (e.wire_type == WireType::kFixed32)
            s.P("                w.WriteFixed32(v);");
        else if (e.wire_type == WireType::kFixed64)
            s.P("                w.WriteFixed64(v);");
        else
            s.P("                w.WriteVarint(%s);",
                WireValueExpr(e.op, "v").c_str());
        s.P("            }");
        break;
      }
    }
    s.P("        }");
    s.P("    }");
}

void
EmitWrite(Src &s, const CodecTableSet &set, int k)
{
    const CodecTable &t = set.table(k);
    s.P("template <bool S>");
    s.P("void");
    s.P("Write_%d(const char *obj, gensup::GenWriter<S> &w, "
        "gensup::GenWriteCtx &wc)",
        k);
    s.P("{");
    s.P("    (void)obj;");
    s.P("    (void)wc;");
    s.P("    if constexpr (S)");
    s.P("        w.sink()->OnMessageBegin();");
    // Forward merge of preserved unknown records with known fields
    // (same interleaving as the reference and table serializers).
    s.P("    const UnknownFieldStore *u = gensup::LoadUnknown(obj, %uu);",
        t.desc->layout().unknown_offset);
    s.P("    uint32_t ucur = 0;");
    for (const CodecEntry &e : t.entries)
        EmitWriteField(s, t, k, e);
    s.P("    if (u != nullptr)");
    s.P("        gensup::EmitUnknownRest<S>(w, u, &ucur);");
    s.P("    if constexpr (S)");
    s.P("        w.sink()->OnMessageEnd();");
    s.P("}");
    s.P("");
}

// ---------------------------------------------------------------------
// Per-pool wrappers + registration
// ---------------------------------------------------------------------

void
EmitDispatch(Src &s, const std::vector<int> &types,
             const std::string &coverage, uint64_t fp,
             std::string_view pool_name)
{
    const int n = static_cast<int>(coverage.size());

    s.P("template <bool S>");
    s.P("ParseStatus");
    s.P("ParseAny(int idx, gensup::GenParseCtx &c, const uint8_t *data,");
    s.P("         size_t len, char *obj)");
    s.P("{");
    s.P("    gensup::GenReader<S> r(data, data + len, c.sink);");
    s.P("    switch (idx) {");
    for (const int k : types)
        s.P("      case %d: return Parse_%d<S>(c, r, obj, 0);", k, k);
    s.P("    }");
    s.P("    PA_CHECK(false);");
    s.P("    return ParseStatus::kOk;");
    s.P("}");
    s.P("");
    s.P("template <bool S>");
    s.P("size_t");
    s.P("SizeAny(int idx, const char *obj, gensup::GenSizeCtx &c)");
    s.P("{");
    s.P("    switch (idx) {");
    for (const int k : types)
        s.P("      case %d: return Size_%d<S>(obj, c);", k, k);
    s.P("    }");
    s.P("    PA_CHECK(false);");
    s.P("    return 0;");
    s.P("}");
    s.P("");
    s.P("template <bool S>");
    s.P("void");
    s.P("WriteAny(int idx, const char *obj, gensup::GenWriter<S> &w,");
    s.P("         gensup::GenWriteCtx &wc)");
    s.P("{");
    s.P("    switch (idx) {");
    for (const int k : types)
        s.P("      case %d: Write_%d<S>(obj, w, wc); return;", k, k);
    s.P("    }");
    s.P("    PA_CHECK(false);");
    s.P("}");
    s.P("");

    // Entry points: exact table-engine semantics (parser.cc
    // ParseFromBuffer / serializer.cc ByteSize, SerializeToBuffer,
    // Serialize), with the sink-specialized instantiation chosen once.
    s.P("ParseStatus");
    s.P("DoParse(int idx, const uint8_t *data, size_t len, Message *msg,");
    s.P("        CostSink *sink, const ParseLimits *limits)");
    s.P("{");
    s.P("    PA_CHECK(msg != nullptr && msg->valid());");
    s.P("    gensup::GenParseCtx c{msg->arena(), &msg->pool(), sink,");
    s.P("                          UINT64_MAX, kMaxParseDepth};");
    s.P("    if (limits != nullptr) {");
    s.P("        if (limits->max_payload_bytes > 0 &&");
    s.P("            len > limits->max_payload_bytes)");
    s.P("            return ParseStatus::kResourceExhausted;");
    s.P("        if (limits->max_alloc_bytes > 0)");
    s.P("            c.budget = limits->max_alloc_bytes;");
    s.P("        if (limits->max_depth > 0)");
    s.P("            c.max_depth = static_cast<int>(limits->max_depth);");
    s.P("    }");
    s.P("    char *obj = static_cast<char *>(msg->raw());");
    s.P("    if (sink != nullptr)");
    s.P("        return ParseAny<true>(idx, c, data, len, obj);");
    s.P("    return ParseAny<false>(idx, c, data, len, obj);");
    s.P("}");
    s.P("");
    s.P("size_t");
    s.P("DoByteSize(int idx, const Message &msg, CostSink *sink)");
    s.P("{");
    s.P("    PA_CHECK(msg.valid());");
    s.P("    std::vector<size_t> &subs = gensup::GenScratchSizes();");
    s.P("    subs.clear();");
    s.P("    gensup::GenSizeCtx c{sink, &subs};");
    s.P("    const char *obj = static_cast<const char *>(msg.raw());");
    s.P("    return sink != nullptr ? SizeAny<true>(idx, obj, c)");
    s.P("                           : SizeAny<false>(idx, obj, c);");
    s.P("}");
    s.P("");
    s.P("template <bool S>");
    s.P("size_t");
    s.P("WritePass(int idx, const char *obj, uint8_t *buf, size_t cap,");
    s.P("          CostSink *sink, const std::vector<size_t> &subs)");
    s.P("{");
    s.P("    gensup::GenWriter<S> w(buf, cap, sink);");
    s.P("    gensup::GenWriteCtx wc{&subs, 0};");
    s.P("    WriteAny<S>(idx, obj, w, wc);");
    s.P("    PA_CHECK(w.ok());");
    s.P("    PA_CHECK_EQ(wc.cursor, subs.size());");
    s.P("    return w.written(buf);");
    s.P("}");
    s.P("");
    s.P("size_t");
    s.P("DoSerializeTo(int idx, const Message &msg, uint8_t *buf,");
    s.P("              size_t cap, CostSink *sink)");
    s.P("{");
    s.P("    PA_CHECK(msg.valid());");
    s.P("    std::vector<size_t> &subs = gensup::GenScratchSizes();");
    s.P("    subs.clear();");
    s.P("    gensup::GenSizeCtx sc{sink, &subs};");
    s.P("    const char *obj = static_cast<const char *>(msg.raw());");
    s.P("    const size_t size = sink != nullptr");
    s.P("                            ? SizeAny<true>(idx, obj, sc)");
    s.P("                            : SizeAny<false>(idx, obj, sc);");
    s.P("    if (size > cap)");
    s.P("        return 0;");
    s.P("    const size_t written =");
    s.P("        sink != nullptr");
    s.P("            ? WritePass<true>(idx, obj, buf, cap, sink, subs)");
    s.P("            : WritePass<false>(idx, obj, buf, cap, sink, subs);");
    s.P("    PA_CHECK_EQ(written, size);");
    s.P("    return written;");
    s.P("}");
    s.P("");
    s.P("size_t");
    s.P("DoSerialize(int idx, const Message &msg, std::vector<uint8_t> "
        "*out,");
    s.P("            CostSink *sink)");
    s.P("{");
    s.P("    PA_CHECK(msg.valid());");
    s.P("    std::vector<size_t> &subs = gensup::GenScratchSizes();");
    s.P("    subs.clear();");
    s.P("    gensup::GenSizeCtx sc{sink, &subs};");
    s.P("    const char *obj = static_cast<const char *>(msg.raw());");
    s.P("    const size_t size = sink != nullptr");
    s.P("                            ? SizeAny<true>(idx, obj, sc)");
    s.P("                            : SizeAny<false>(idx, obj, sc);");
    s.P("    out->assign(size, 0);");
    s.P("    if (size == 0)");
    s.P("        return 0;");
    s.P("    const size_t written =");
    s.P("        sink != nullptr");
    s.P("            ? WritePass<true>(idx, obj, out->data(), size, sink,");
    s.P("                              subs)");
    s.P("            : WritePass<false>(idx, obj, out->data(), size, sink,");
    s.P("                               subs);");
    s.P("    PA_CHECK_EQ(written, size);");
    s.P("    return written;");
    s.P("}");
    s.P("");
    s.P("const GeneratedPoolCodec kCodec = {");
    s.P("    0x%016llxull,", static_cast<unsigned long long>(fp));
    s.P("    \"%s\",", std::string(pool_name).c_str());
    s.P("    %d,", n);
    // One character per type: longer than P's line buffer allows.
    s.str() += "    \"" + coverage + "\",\n";
    s.P("    &DoParse,");
    s.P("    &DoByteSize,");
    s.P("    &DoSerializeTo,");
    s.P("    &DoSerialize,");
    s.P("};");
    s.P("");
    s.P("[[maybe_unused]] const GeneratedCodecRegistrar kRegistrar("
        "&kCodec);");
}

}  // namespace

std::string
CodecFilePrologue(std::string_view banner)
{
    Src s;
    s.P("// Generated by codec_gen (%.*s). DO NOT EDIT.",
        static_cast<int>(banner.size()), banner.data());
    s.P("//");
    s.P("// Schema-specialized codecs: one namespace per source");
    s.P("// DescriptorPool, registered by structural fingerprint");
    s.P("// (see src/proto/codec_generated.h).");
    s.P("");
    s.P("#include \"common/check.h\"");
    s.P("#include \"proto/codec_gen_support.h\"");
    s.P("");
    return s.str();
}

std::string
GenerateCodecSource(const DescriptorPool &pool, std::string_view pool_name,
                    const std::vector<int> &roots)
{
    PA_CHECK(pool.compiled());
    const CodecTableSet &set = GetCodecTables(pool);
    const uint64_t fp = SchemaFingerprint(pool);
    const int n = static_cast<int>(set.table_count());

    // The closure of @p roots over message-typed fields: '1' per type
    // whose code is emitted. Emitted code calls no other type's code.
    std::string coverage(static_cast<size_t>(n), '0');
    std::vector<int> todo = roots;
    while (!todo.empty()) {
        const int k = todo.back();
        todo.pop_back();
        PA_CHECK(k >= 0 && k < n);
        if (coverage[static_cast<size_t>(k)] == '1')
            continue;
        coverage[static_cast<size_t>(k)] = '1';
        for (const CodecEntry &e : set.table(k).entries) {
            if (e.op == FieldOp::kMessage)
                todo.push_back(e.sub_table);
        }
    }
    std::vector<int> types;  // ascending, as the pool orders them
    for (int k = 0; k < n; ++k) {
        if (coverage[static_cast<size_t>(k)] == '1')
            types.push_back(k);
    }

    Src s;
    s.P("// pool \"%s\": %d message type(s), fingerprint %016llx",
        std::string(pool_name).c_str(), n,
        static_cast<unsigned long long>(fp));
    s.P("namespace protoacc::proto::gencodec::gc_%016llx {",
        static_cast<unsigned long long>(fp));
    s.P("namespace {");
    s.P("");

    // Default-string constants (singular string/bytes with non-empty
    // defaults; written when the slot is present-but-null).
    for (const int k : types) {
        for (const CodecEntry &e : set.table(k).entries) {
            if (e.repeated() ||
                (e.op != FieldOp::kString && e.op != FieldOp::kBytes) ||
                e.field->default_string.empty())
                continue;
            s.P("[[maybe_unused]] constexpr char %s[] = \"%s\";",
                DefName(k, e).c_str(),
                CEscape(e.field->default_string).c_str());
        }
    }

    // Lenient-path metadata, indexed by entry position.
    for (const int k : types) {
        const CodecTable &t = set.table(k);
        bool any_scalar = false;
        for (const CodecEntry &e : t.entries)
            any_scalar = any_scalar || IsScalarOp(e.op);
        if (!any_scalar)
            continue;
        s.P("[[maybe_unused]] constexpr gensup::GenFieldMeta "
            "kMeta_%d[] = {",
            k);
        for (const CodecEntry &e : t.entries) {
            s.P("    {FieldOp::%s, %u, %s, WireType::%s, %uu, %uu, "
                "0x%xu},",
                FieldOpName(e.op), e.mem_width,
                e.repeated() ? "true" : "false", WireTypeName(e.wire_type),
                e.offset, HasbitWordOffset(t, e), HasbitMask(e));
        }
        s.P("};");
    }
    s.P("");

    // Forward declarations (messages reference each other freely).
    for (const int k : types) {
        s.P("template <bool S>");
        s.P("ParseStatus Parse_%d(gensup::GenParseCtx &c, "
            "gensup::GenReader<S> &r, char *obj, int depth);",
            k);
        s.P("template <bool S>");
        s.P("size_t Size_%d(const char *obj, gensup::GenSizeCtx &c);", k);
        s.P("template <bool S>");
        s.P("void Write_%d(const char *obj, gensup::GenWriter<S> &w, "
            "gensup::GenWriteCtx &wc);",
            k);
    }
    s.P("");

    for (const int k : types) {
        EmitParse(s, set, k);
        EmitSize(s, set, k);
        EmitWrite(s, set, k);
    }

    EmitDispatch(s, types, coverage, fp, pool_name);

    s.P("");
    s.P("}  // namespace");
    s.P("}  // namespace protoacc::proto::gencodec::gc_%016llx",
        static_cast<unsigned long long>(fp));
    s.P("");
    return s.str();
}

}  // namespace protoacc::proto
