#include "android/tun_device.h"

#include <algorithm>

#include "util/logging.h"

namespace mopdroid {

TunDevice::TunDevice(mopsim::EventLoop* loop) : loop_(loop) { MOP_CHECK(loop != nullptr); }

void TunDevice::InjectOutgoing(moppkt::PacketBuf datagram) {
  if (closed_) {
    return;
  }
  ++packets_out_;
  bytes_out_ += datagram.size();
  outgoing_.push_back(OutPacket{loop_->Now(), std::move(datagram)});
  outgoing_high_water_ = std::max(outgoing_high_water_, outgoing_.size());
  if (on_outgoing_ready) {
    on_outgoing_ready();
  }
}

void TunDevice::InjectOutgoing(std::vector<uint8_t> datagram) {
  InjectOutgoing(moppkt::BufPool::Default().AcquireCopy(datagram));
}

std::optional<TunDevice::OutPacket> TunDevice::ReadOutgoing() {
  if (outgoing_.empty()) {
    return std::nullopt;
  }
  OutPacket pkt = std::move(outgoing_.front());
  outgoing_.pop_front();
  return pkt;
}

size_t TunDevice::ReadOutgoingBurst(size_t max, std::vector<OutPacket>* out) {
  size_t n = std::min(max, outgoing_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(outgoing_.front()));
    outgoing_.pop_front();
  }
  return n;
}

void TunDevice::WriteIncoming(moppkt::PacketBuf datagram) {
  if (closed_) {
    return;
  }
  ++packets_in_;
  bytes_in_ += datagram.size();
  if (on_deliver_to_apps) {
    on_deliver_to_apps(std::move(datagram));
  }
}

void TunDevice::WriteIncoming(std::vector<uint8_t> datagram) {
  WriteIncoming(moppkt::BufPool::Default().AcquireCopy(datagram));
}

void TunDevice::Close() {
  closed_ = true;
  outgoing_.clear();
}

}  // namespace mopdroid
