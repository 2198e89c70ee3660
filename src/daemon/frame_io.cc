#include "daemon/frame_io.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

namespace exdl::daemon {

namespace {

/// Drops the first `n` bytes a transfer moved through `msg`'s iovecs.
void Consume(msghdr* msg, size_t n) {
  while (msg->msg_iovlen > 0 && n >= msg->msg_iov->iov_len) {
    n -= msg->msg_iov->iov_len;
    ++msg->msg_iov;
    --msg->msg_iovlen;
  }
  if (msg->msg_iovlen > 0) {
    msg->msg_iov->iov_base = static_cast<char*>(msg->msg_iov->iov_base) + n;
    msg->msg_iov->iov_len -= n;
  }
}

/// Fills the `count` buffers of `iov` exactly. Returns the byte count
/// actually read: their total on success, less on EOF/error (errno
/// preserved; 0 errno means plain EOF).
size_t ReadExact(int fd, iovec* iov, size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  size_t got = 0;
  while (msg.msg_iovlen > 0) {
    const ssize_t r = ::recvmsg(fd, &msg, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      Consume(&msg, static_cast<size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) errno = 0;  // EOF, not an error.
    break;
  }
  return got;
}

}  // namespace

Status ReadFrame(int fd, Frame* out, bool* clean_eof) {
  *clean_eof = false;
  char prefix[4];
  iovec prefix_iov = {prefix, sizeof prefix};
  const size_t got = ReadExact(fd, &prefix_iov, 1);
  if (got == 0 && errno == 0) {
    *clean_eof = true;
    return Status::Unavailable("connection closed");
  }
  if (got < sizeof prefix) {
    return Status::Unavailable("torn connection: short length prefix");
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (length == 0) {
    return Status::InvalidArgument("frame with empty payload");
  }
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(length) +
                                   " bytes exceeds the protocol cap");
  }
  // One read scatters the type byte into a local and the rest straight
  // into the frame's body: the payload is never staged and copied.
  char type_byte = 0;
  out->body.resize(length - 1);
  iovec payload_iov[2] = {{&type_byte, 1}, {out->body.data(), length - 1}};
  if (ReadExact(fd, payload_iov, 2) < length) {
    return Status::Unavailable("torn connection: short frame body");
  }
  const uint8_t type = static_cast<uint8_t>(type_byte);
  if (!IsKnownMsgType(type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  out->type = static_cast<MsgType>(type);
  return Status::Ok();
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload size out of range");
  }
  char prefix[4];
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
  // Prefix and payload leave in one sendmsg; a partial write resumes
  // where it stopped.
  iovec iov[2] = {{prefix, sizeof prefix},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      Consume(&msg, static_cast<size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("torn connection on write: ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

bool PeerClosed(int fd) {
  char byte;
  const ssize_t r = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) return true;                        // orderly shutdown
  if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return false;                                 // alive, nothing pending
  }
  return r < 0;                                   // reset or other error
}

}  // namespace exdl::daemon
