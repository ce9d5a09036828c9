#include "src/xproto/trace.h"

#include <cstring>
#include <fstream>

namespace xproto {

namespace {

// One record on disk: [type u8][pad u8][payload length u32][payload].
void PutRecord(const TraceRecord& rec, WireWriter* w) {
  WireWriter payload;
  switch (rec.type) {
    case TraceRecordType::kConnect:
      payload.U32(rec.client);
      payload.U16(static_cast<uint16_t>(rec.machine.size()));
      payload.String(rec.machine);
      break;
    case TraceRecordType::kDisconnect:
      payload.U32(rec.client);
      break;
    case TraceRecordType::kRequest:
    case TraceRecordType::kReply:
      payload.U32(rec.client);
      payload.Bytes(rec.bytes);
      break;
    case TraceRecordType::kMotion:
      payload.I32(rec.x);
      payload.I32(rec.y);
      break;
    case TraceRecordType::kButton:
      payload.U8(static_cast<uint8_t>(rec.button));
      payload.U8(rec.press ? 1 : 0);
      payload.U16(0);
      payload.U32(rec.modifiers);
      break;
    case TraceRecordType::kKey:
      payload.U32(rec.keysym);
      payload.U8(rec.press ? 1 : 0);
      payload.U8(0);
      payload.U16(0);
      payload.U32(rec.modifiers);
      break;
    case TraceRecordType::kWarp:
      payload.I32(rec.screen);
      payload.I32(rec.x);
      payload.I32(rec.y);
      break;
    case TraceRecordType::kPump:
      break;
    case TraceRecordType::kExpect:
      payload.U64(rec.expect_requests);
      payload.U64(rec.expect_draw_ops);
      payload.U64(rec.expect_pixels);
      break;
  }
  w->U8(static_cast<uint8_t>(rec.type));
  w->U8(0);
  w->U32(static_cast<uint32_t>(payload.bytes().size()));
  w->Bytes(payload.span());
}

}  // namespace

std::vector<uint8_t> SerializeTrace(const Trace& trace) {
  WireWriter w;
  w.Bytes(std::span<const uint8_t>(kTraceMagic, 4));
  w.U32(kTraceVersion);
  for (const TraceRecord& rec : trace.records) {
    PutRecord(rec, &w);
  }
  return w.Take();
}

std::optional<Trace> ParseTrace(std::span<const uint8_t> bytes, ParseError* error) {
  auto fail = [&](ParseErrorCode code, size_t offset,
                  const std::string& detail) -> std::optional<Trace> {
    error->code = code;
    error->offset = offset;
    error->opcode = 0;
    error->detail = detail;
    return std::nullopt;
  };

  WireReader r(bytes);
  std::span<const uint8_t> magic = r.Bytes(4);
  uint32_t version = r.U32();
  if (!r.ok() || std::memcmp(magic.data(), kTraceMagic, 4) != 0) {
    return fail(ParseErrorCode::kBadOpcode, 0, "missing SWMT magic");
  }
  if (version != kTraceVersion) {
    return fail(ParseErrorCode::kBadValue, 4, "unsupported trace version");
  }

  Trace trace;
  while (r.remaining() > 0) {
    size_t record_offset = r.offset();
    uint8_t type = r.U8();
    r.Skip(1);
    uint32_t payload_len = r.U32();
    if (!r.ok()) {
      return fail(ParseErrorCode::kTruncated, record_offset, "record header short");
    }
    if (payload_len > kMaxTraceRecordBytes) {
      return fail(ParseErrorCode::kOversized, record_offset, "record payload over cap");
    }
    if (payload_len > r.remaining()) {
      return fail(ParseErrorCode::kTruncated, record_offset, "record payload short");
    }
    WireReader p(r.Bytes(payload_len));

    TraceRecord rec;
    rec.type = static_cast<TraceRecordType>(type);
    switch (rec.type) {
      case TraceRecordType::kConnect: {
        rec.client = p.U32();
        uint16_t len = p.U16();
        if (p.ok() && len > p.remaining()) {
          return fail(ParseErrorCode::kBadLength, record_offset,
                      "machine name overruns record");
        }
        rec.machine = p.String(len);
        break;
      }
      case TraceRecordType::kDisconnect:
        rec.client = p.U32();
        break;
      case TraceRecordType::kRequest:
      case TraceRecordType::kReply: {
        rec.client = p.U32();
        std::span<const uint8_t> body = p.Bytes(p.remaining());
        rec.bytes.assign(body.begin(), body.end());
        break;
      }
      case TraceRecordType::kMotion:
        rec.x = p.I32();
        rec.y = p.I32();
        break;
      case TraceRecordType::kButton:
        rec.button = p.U8();
        rec.press = p.U8() != 0;
        p.Skip(2);
        rec.modifiers = p.U32();
        break;
      case TraceRecordType::kKey:
        rec.keysym = p.U32();
        rec.press = p.U8() != 0;
        p.Skip(3);
        rec.modifiers = p.U32();
        break;
      case TraceRecordType::kWarp:
        rec.screen = p.I32();
        rec.x = p.I32();
        rec.y = p.I32();
        break;
      case TraceRecordType::kPump:
        break;
      case TraceRecordType::kExpect:
        rec.expect_requests = p.U64();
        rec.expect_draw_ops = p.U64();
        rec.expect_pixels = p.U64();
        break;
      default:
        return fail(ParseErrorCode::kBadOpcode, record_offset, "unknown record type");
    }
    if (!p.ok()) {
      return fail(ParseErrorCode::kTruncated, record_offset, "record body short");
    }
    trace.records.push_back(std::move(rec));
  }
  return trace;
}

bool WriteTraceFile(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  std::vector<uint8_t> bytes = SerializeTrace(trace);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Trace> ReadTraceFile(const std::string& path, ParseError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error->code = ParseErrorCode::kTruncated;
    error->detail = "cannot open " + path;
    return std::nullopt;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return ParseTrace(bytes, error);
}

// ---- TraceRecorder ----------------------------------------------------------

void TraceRecorder::RecordConnect(ClientId client, const std::string& machine) {
  TraceRecord rec;
  rec.type = TraceRecordType::kConnect;
  rec.client = client;
  rec.machine = machine;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordDisconnect(ClientId client) {
  TraceRecord rec;
  rec.type = TraceRecordType::kDisconnect;
  rec.client = client;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordRequestBytes(ClientId client, std::span<const uint8_t> bytes) {
  TraceRecord rec;
  rec.type = TraceRecordType::kRequest;
  rec.client = client;
  rec.bytes.assign(bytes.begin(), bytes.end());
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordReplyBytes(ClientId client, std::span<const uint8_t> bytes) {
  TraceRecord rec;
  rec.type = TraceRecordType::kReply;
  rec.client = client;
  rec.bytes.assign(bytes.begin(), bytes.end());
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordMotion(int x, int y) {
  TraceRecord rec;
  rec.type = TraceRecordType::kMotion;
  rec.x = x;
  rec.y = y;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordButton(int button, bool press, uint32_t modifiers) {
  TraceRecord rec;
  rec.type = TraceRecordType::kButton;
  rec.button = button;
  rec.press = press;
  rec.modifiers = modifiers;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordKey(KeySym keysym, bool press, uint32_t modifiers) {
  TraceRecord rec;
  rec.type = TraceRecordType::kKey;
  rec.keysym = keysym;
  rec.press = press;
  rec.modifiers = modifiers;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordWarp(int screen, int x, int y) {
  TraceRecord rec;
  rec.type = TraceRecordType::kWarp;
  rec.screen = screen;
  rec.x = x;
  rec.y = y;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordPump() {
  TraceRecord rec;
  rec.type = TraceRecordType::kPump;
  trace_.records.push_back(std::move(rec));
}

void TraceRecorder::RecordExpect(uint64_t requests, uint64_t draw_ops, uint64_t pixels) {
  TraceRecord rec;
  rec.type = TraceRecordType::kExpect;
  rec.expect_requests = requests;
  rec.expect_draw_ops = draw_ops;
  rec.expect_pixels = pixels;
  trace_.records.push_back(std::move(rec));
}

}  // namespace xproto
