// GIOP (General Inter-ORB Protocol) message structures.
//
// The fault-tolerance infrastructure reproduced here works by *intercepting*
// GIOP messages underneath the ORB and diverting them onto a totally-ordered
// multicast substrate. Everything the interceptor sees is therefore one of
// these messages: a header, a Request or Reply header, and a CDR-encoded
// body. The encoding mirrors GIOP 1.0 with the service-context mechanism of
// later revisions, including the two service contexts the FT-CORBA standard
// added (FT_GROUP_VERSION and FT_REQUEST).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"

namespace eternal::giop {

/// IOP-assigned service context identifiers. 12 and 13 are the real values
/// the OMG assigned for FT-CORBA.
enum class ServiceId : std::uint32_t {
  FtGroupVersion = 12,
  FtRequest = 13,
};

struct ServiceContext {
  std::uint32_t context_id = 0;
  /// Decoded messages hold a slice of the arriving frame (no copy).
  cdr::WireBuf context_data;

  bool operator==(const ServiceContext&) const = default;
};

/// FT_REQUEST service context: lets a server detect retransmitted requests
/// (client failover) and return the logged reply instead of re-executing.
struct FtRequestContext {
  std::string client_id;
  std::int32_t retention_id = 0;
  std::uint64_t expiration_time = 0;

  /// The context data: an encapsulation (endian flag, then the fields).
  cdr::WireBuf encode() const;
  static FtRequestContext decode(const cdr::WireBuf& data);
  bool operator==(const FtRequestContext&) const = default;
};

/// FT_GROUP_VERSION: the object-group membership version the client believes
/// it is talking to; a server with a newer version replies LOCATION_FORWARD
/// carrying the fresh IOGR.
struct FtGroupVersionContext {
  std::uint32_t object_group_ref_version = 0;

  cdr::WireBuf encode() const;
  static FtGroupVersionContext decode(const cdr::WireBuf& data);
  bool operator==(const FtGroupVersionContext&) const = default;
};

enum class MsgType : std::uint8_t {
  Request = 0,
  Reply = 1,
  CancelRequest = 2,
  LocateRequest = 3,
  LocateReply = 4,
  CloseConnection = 5,
  MessageError = 6,
};

struct MessageHeader {
  // "GIOP" magic, major.minor version, flags (bit 0: little-endian body).
  std::uint8_t version_major = 1;
  std::uint8_t version_minor = 0;
  MsgType msg_type = MsgType::Request;
  std::uint32_t msg_size = 0;  // size of everything after the 12-byte header
};

enum class ReplyStatus : std::uint32_t {
  NoException = 0,
  UserException = 1,
  SystemException = 2,
  LocationForward = 3,
};

/// CORBA system-exception minor-code payload used with SystemException.
struct SystemExceptionBody {
  std::string exception_id;  // e.g. "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
  std::uint32_t minor_code = 0;
  std::uint32_t completion_status = 0;  // 0=yes, 1=no, 2=maybe

  void encode(cdr::Writer& w) const;
  static SystemExceptionBody decode(cdr::Decoder& dec);
  bool operator==(const SystemExceptionBody&) const = default;
};

struct RequestHeader {
  std::vector<ServiceContext> service_contexts;
  std::uint32_t request_id = 0;
  bool response_expected = true;
  /// Identifies the target object (group) at the server. Decoded requests
  /// hold a slice of the arriving frame; keys are short, so built requests
  /// land in the WireBuf inline storage.
  cdr::WireBuf object_key;
  std::string operation;  // IDL operation name

  bool operator==(const RequestHeader&) const = default;
};

struct ReplyHeader {
  std::vector<ServiceContext> service_contexts;
  std::uint32_t request_id = 0;
  ReplyStatus reply_status = ReplyStatus::NoException;

  bool operator==(const ReplyHeader&) const = default;
};

/// A fully framed GIOP message: header + (request|reply) header + CDR body.
struct Message {
  MessageHeader header;
  std::optional<RequestHeader> request;  // set iff header.msg_type == Request
  std::optional<ReplyHeader> reply;      // set iff header.msg_type == Reply
  /// CDR-encoded operation args/results. Decoded messages hold a slice of
  /// the arriving frame (no copy).
  cdr::WireBuf body;

  bool operator==(const Message&) const = default;
};

/// Single-pass framing into an open arena frame: 12-byte GIOP header with
/// the message size reserved and backpatched, content aligned relative to
/// the byte after the header (Writer::mark_origin).
void encode_request_into(cdr::Writer& w, const RequestHeader& hdr,
                         std::span<const std::uint8_t> body);
void encode_reply_into(cdr::Writer& w, const ReplyHeader& hdr,
                       std::span<const std::uint8_t> body);

/// Parse a framed message; contexts/object key/body reference `wire`
/// (refcount bump, no copy). Throws cdr::MarshalError on malformed input.
Message decode(const cdr::WireBuf& wire);

/// Convenience: find a service context by id.
const ServiceContext* find_context(const std::vector<ServiceContext>& ctxs,
                                   ServiceId id);

}  // namespace eternal::giop
