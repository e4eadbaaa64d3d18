#include "msg/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "msg/spsc_ring.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::msg {

namespace {

/// Ceiling on lanes so the dirty-lane set fits one 64-bit mask.
constexpr std::uint32_t kMaxLanes = 64;

/// Cadence of Endpoint::service() for hooks that request it (fault
/// decorators flush time-bounded holdbacks there).
constexpr std::chrono::milliseconds kServiceInterval{5};

}  // namespace

struct Reactor::Impl {
  struct Peer;

  /// The io thread's wake funnel.  Owned jointly by the reactor and by
  /// every endpoint ready-callback that captured it: a callback firing
  /// after the reactor died still finds live state (the eventfd write goes
  /// nowhere, harmlessly) instead of dangling pointers.
  struct IoSignal {
    std::mutex mu;
    std::vector<std::shared_ptr<Peer>> ready;
    /// Set (under `mu`) once the io thread is joined.  `ready` entries
    /// own their Peer, the Peer owns its endpoint, and the endpoint's
    /// ready-callback owns this signal — a cycle no destructor runs for.
    /// stop() clears the vector and closes the funnel so a late callback
    /// cannot re-park a peer in it.
    bool closed = false;
    int evfd = -1;

    IoSignal() { evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
    ~IoSignal() {
      if (evfd >= 0) ::close(evfd);
    }
    void wake() const {
      std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t r = ::write(evfd, &one, sizeof(one));
    }
  };

  /// Per-connection state.  Fields below the marker are owned by the io
  /// thread; other threads only touch `id`/`lane`/`ep` (immutable after
  /// add) and the `ready` latch.
  struct Peer {
    PeerId id = 0;
    std::uint32_t lane = 0;
    std::shared_ptr<Endpoint> ep;
    ReactorHook hook;
    /// Callback latch: set on ready-signal, cleared by the io thread just
    /// before draining, so each burst costs one funnel entry.
    std::atomic<bool> ready{false};
    /// Set by remove_peer before the Remove command posts: sends observed
    /// after a close must be dropped, not transmitted — the async analogue
    /// of the blocking shells' send-after-close ChannelClosed.  Inbound
    /// frames the endpoint already queued still deliver (drain-then-retire).
    std::atomic<bool> dead{false};

    // -- io-thread-owned from here --
    std::vector<Message> out;  ///< outbound FIFO (contiguous for send_some)
    std::size_t out_head = 0;
    std::size_t out_bytes = 0;
    bool in_flush = false;
    bool in_redrain = false;
    bool epollout = false;
    bool registered = false;  ///< fd present in the epoll set
    bool closed = false;      ///< retired (closed marker emitted or queued)
  };

  /// One flush() barrier: counts the sentinel acks still outstanding (one
  /// per lane).
  struct FlushTicket {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
  };

  struct Command {
    enum class Kind { Add, Remove, Send, Flush };
    Kind kind = Kind::Add;
    std::shared_ptr<Peer> peer;
    Message m;
    std::shared_ptr<FlushTicket> ticket;  ///< Flush only
  };

  /// Inbound handoff: one decoded frame (or the closed marker) on its way
  /// from the io thread to a lane.  A null peer with a ticket is a flush
  /// sentinel: everything the io thread queued before it has been
  /// delivered.
  struct InItem {
    std::shared_ptr<Peer> peer;
    Message m;
    bool closed = false;
    std::shared_ptr<FlushTicket> ticket;
  };

  /// Completion: a message a lane queued for transmission.
  struct OutItem {
    std::shared_ptr<Peer> peer;
    Message m;
  };

  /// One worker lane: its two rings, its thread and its wake latch.
  struct Lane {
    explicit Lane(std::size_t ring_capacity)
        : in(ring_capacity), out(ring_capacity) {}
    SpscRing<InItem> in;    ///< producer = io thread, consumer = the lane
    SpscRing<OutItem> out;  ///< producer = the lane, consumer = io thread
    std::thread thr;
    std::mutex mu;
    std::condition_variable cv;
    bool signaled = false;
  };

  /// Set while a lane thread runs its loop; routes handler-issued sends
  /// onto the lock-free completion ring instead of the command inbox.
  struct LaneCtx {
    Impl* impl = nullptr;
    std::uint32_t lane = 0;
    std::unordered_map<PeerId, std::shared_ptr<Peer>>* cache = nullptr;
    bool wake_io = false;  ///< completions pushed since the last io wake
  };
  static thread_local LaneCtx* tl_lane;

  /// Set on the io thread in inline mode: handler-issued replies enqueue
  /// straight onto the peer's write queue — the io thread owns all io
  /// state, so no ring and no wake are needed.
  static thread_local Impl* tl_inline;

  ReactorOptions opts_;
  ReactorHandler& handler_;
  /// Inline mode (one lane): nothing to overlap, so the io thread invokes
  /// the handler directly — no rings, no lane thread, and two fewer
  /// context switches per round trip (on a single core that halves the
  /// happy-path latency).  Closed events are still deferred through
  /// closed_backlog_ so an eviction triggered by a handler-issued send
  /// never re-enters the handler.
  bool inline_ = false;

  std::mutex registry_mu_;
  std::unordered_map<PeerId, std::shared_ptr<Peer>> registry_;

  int epfd_ = -1;
  std::shared_ptr<IoSignal> signal_ = std::make_shared<IoSignal>();
  std::mutex inbox_mu_;
  std::vector<Command> inbox_;
  std::thread io_thr_;

  std::vector<std::unique_ptr<Lane>> lanes_;  ///< empty in inline mode

  // -- io-thread-local --
  std::unordered_map<PeerId, std::shared_ptr<Peer>> peers_;
  std::vector<std::shared_ptr<Peer>> service_;   ///< needs_service hooks
  std::vector<std::shared_ptr<Peer>> redrain_;   ///< inbound ring was full
  std::vector<std::shared_ptr<Peer>> closed_backlog_;  ///< marker retry
  std::vector<std::shared_ptr<Peer>> flush_list_;      ///< queued output
  std::vector<std::shared_ptr<FlushTicket>> flush_waiters_;  ///< barriers
  /// Peers retired this iteration: keeps epoll_event.data.ptr valid for
  /// the rest of the batch; cleared at the top of the next iteration.
  std::vector<std::shared_ptr<Peer>> retired_;
  std::uint64_t lane_dirty_ = 0;  ///< lanes with fresh ring pushes

  std::atomic<bool> stop_{false};
  std::atomic<bool> io_running_{false};
  std::mutex join_mu_;
  bool joined_ = false;

  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> flush_batches_{0};
  std::atomic<std::uint64_t> ring_stalls_{0};
  std::atomic<std::uint64_t> backpressure_closes_{0};

  obs::Counter* c_frames_in_ = nullptr;
  obs::Counter* c_frames_out_ = nullptr;
  obs::Counter* c_flush_batches_ = nullptr;
  obs::Counter* c_ring_stalls_ = nullptr;
  obs::Counter* c_backpressure_ = nullptr;
  obs::Gauge* g_queue_bytes_ = nullptr;

  Impl(const ReactorOptions& opts, ReactorHandler& handler)
      : opts_(opts), handler_(handler) {
    opts_.lanes = std::clamp(opts_.lanes, 1u, kMaxLanes);
    inline_ = opts_.lanes == 1;
    if (obs::Telemetry* t = opts_.telemetry) {
      c_frames_in_ = &t->registry().counter("reactor.frames_in");
      c_frames_out_ = &t->registry().counter("reactor.frames_out");
      c_flush_batches_ = &t->registry().counter("reactor.flush_batches");
      c_ring_stalls_ = &t->registry().counter("reactor.ring_stalls");
      c_backpressure_ = &t->registry().counter("reactor.backpressure_closes");
      g_queue_bytes_ = &t->registry().gauge("reactor.write_queue_bytes");
    }
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0 || signal_->evfd < 0) {
      throw std::runtime_error("reactor: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    // Edge-triggered: each write posts one wake and the counter value is
    // never consumed (the ready funnel / inbox carry the actual work), so
    // the io thread never has to spend read() syscalls draining the
    // eventfd — those reads sat directly on the wakeup-to-handler path.
    ev.events = EPOLLIN | EPOLLET;
    ev.data.ptr = nullptr;  // nullptr = the wake eventfd
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, signal_->evfd, &ev);
    if (!inline_) {
      for (std::uint32_t l = 0; l < opts_.lanes; ++l) {
        lanes_.push_back(std::make_unique<Lane>(opts_.ring_capacity));
      }
    }
    io_running_.store(true);
    io_thr_ = std::thread([this] { io_loop(); });
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l]->thr = std::thread([this, l] { lane_loop(l); });
    }
  }

  ~Impl() {
    stop();
    if (epfd_ >= 0) ::close(epfd_);
  }

  // -- counters ---------------------------------------------------------------

  void bump(std::atomic<std::uint64_t>& a, obs::Counter* c,
            std::uint64_t n = 1) {
    a.fetch_add(n, std::memory_order_relaxed);
    if (c != nullptr) c->add(n);
  }

  // -- public API -------------------------------------------------------------

  void add_peer(PeerId id, std::shared_ptr<Endpoint> ep, std::uint32_t lane) {
    if (stop_.load(std::memory_order_acquire)) {
      throw std::logic_error("reactor: add_peer after stop");
    }
    auto p = std::make_shared<Peer>();
    p->id = id;
    p->lane = lane % opts_.lanes;
    p->ep = std::move(ep);
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      if (!registry_.emplace(id, p).second) {
        throw std::invalid_argument("reactor: peer id already registered");
      }
    }
    // Install the hook before posting the add: a message already queued on
    // the endpoint latches the funnel right away, so nothing is missed in
    // the window before the io thread installs the peer.
    std::shared_ptr<IoSignal> sig = signal_;
    std::weak_ptr<Peer> wp = p;
    p->hook = p->ep->reactor_hook([sig, wp] {
      std::shared_ptr<Peer> sp = wp.lock();
      if (!sp) return;
      if (!sp->ready.exchange(true, std::memory_order_acq_rel)) {
        {
          std::lock_guard<std::mutex> lk(sig->mu);
          // After stop() the funnel is closed: parking the peer here would
          // re-create the endpoint→callback→signal→peer ownership cycle the
          // shutdown path just broke, and nothing will ever drain it.
          if (sig->closed) return;
          sig->ready.push_back(std::move(sp));
        }
        sig->wake();
      }
    });
    if (!p->hook.reactor_capable()) {
      std::lock_guard<std::mutex> lk(registry_mu_);
      registry_.erase(id);
      throw std::invalid_argument("reactor: endpoint is not reactor-capable");
    }
    post(Command{Command::Kind::Add, std::move(p), {}, {}});
  }

  void remove_peer(PeerId id) {
    std::shared_ptr<Peer> p;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(id);
      if (it == registry_.end()) return;
      p = it->second;
    }
    // Gate sends immediately: once a caller decided to close this peer, a
    // reply its handler produces moments later must not beat the Remove
    // command to the wire.
    p->dead.store(true, std::memory_order_release);
    post(Command{Command::Kind::Remove, std::move(p), {}, {}});
  }

  void send(PeerId id, Message m) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (tl_inline == this) {
      // Inline mode: the handler is running on the io thread itself, which
      // owns every peer's write queue — enqueue directly, no ring, no wake.
      auto it = peers_.find(id);
      if (it != peers_.end()) {
        enqueue_out(it->second, std::move(m));
        return;
      }
      // Not installed yet (Add still in the inbox): fall through to the
      // command path, which lands after the Add.
    }
    LaneCtx* ctx = tl_lane;
    if (ctx != nullptr && ctx->impl == this) {
      auto it = ctx->cache->find(id);
      if (it != ctx->cache->end()) {
        if (it->second->dead.load(std::memory_order_acquire)) return;
        // Hot path: handler reply on the lane that processed the request —
        // straight onto the lock-free completion ring.
        auto& ring = lanes_[ctx->lane]->out;
        OutItem item{it->second, std::move(m)};
        while (!ring.push(std::move(item))) {
          // Ring full: nudge the consumer and retry — completions must not
          // drop.  The io thread never blocks, so this drains.
          signal_->wake();
          if (stop_.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
        ctx->wake_io = true;
        return;
      }
      // Cache miss: this lane has never handled a message from `id` (and
      // so has queued nothing ahead of this send) — the inbox path below
      // keeps per-peer FIFO order.
    }
    std::shared_ptr<Peer> p;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(id);
      if (it == registry_.end()) return;
      p = it->second;
    }
    if (p->dead.load(std::memory_order_acquire)) return;
    post(Command{Command::Kind::Send, std::move(p), std::move(m), {}});
  }

  /// Settlement barrier: returns once every command posted before the call
  /// has executed, its queued writes were attempted, and every resulting
  /// message / closed event was delivered by the lanes.  Events triggered
  /// by handlers running concurrently with the flush are NOT covered.
  /// Never call from a reactor thread.
  void flush() {
    if (stop_.load(std::memory_order_acquire)) return;
    auto t = std::make_shared<FlushTicket>();
    t->remaining = opts_.lanes;
    post(Command{Command::Kind::Flush, nullptr, {}, t});
    std::unique_lock<std::mutex> lk(t->mu);
    while (t->remaining != 0 && !stop_.load(std::memory_order_acquire)) {
      t->cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(join_mu_);
    if (joined_) return;
    joined_ = true;
    signal_->wake();
    if (io_thr_.joinable()) io_thr_.join();
    {
      std::lock_guard<std::mutex> slk(signal_->mu);
      signal_->closed = true;
      signal_->ready.clear();
    }
    for (auto& ln : lanes_) wake_lane(*ln);
    for (auto& ln : lanes_) {
      if (ln->thr.joinable()) ln->thr.join();
    }
  }

  ReactorStats stats() const {
    ReactorStats s;
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.flush_batches = flush_batches_.load(std::memory_order_relaxed);
    s.ring_stalls = ring_stalls_.load(std::memory_order_relaxed);
    s.backpressure_closes =
        backpressure_closes_.load(std::memory_order_relaxed);
    return s;
  }

  // -- wake plumbing ----------------------------------------------------------

  void post(Command cmd) {
    {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      inbox_.push_back(std::move(cmd));
    }
    signal_->wake();
  }

  void wake_lane(Lane& ln) {
    {
      std::lock_guard<std::mutex> lk(ln.mu);
      ln.signaled = true;
    }
    ln.cv.notify_one();
  }

  void wake_dirty_lanes() {
    while (lane_dirty_ != 0) {
      const int l = __builtin_ctzll(lane_dirty_);
      lane_dirty_ &= lane_dirty_ - 1;
      wake_lane(*lanes_[static_cast<std::uint32_t>(l)]);
    }
  }

  /// Count one sentinel ack against a flush barrier.
  static void ack(FlushTicket& t) {
    std::lock_guard<std::mutex> lk(t.mu);
    if (t.remaining > 0) --t.remaining;
    if (t.remaining == 0) t.cv.notify_all();
  }

  // -- io-thread internals ----------------------------------------------------

  void dispatch_message(PeerId id, Message&& m) {
    try {
      handler_.on_message(id, std::move(m));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hdsm reactor: handler threw for peer %llu: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }

  void dispatch_closed(PeerId id) {
    try {
      handler_.on_peer_closed(id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hdsm reactor: handler threw for peer %llu: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }

  bool push_in(const std::shared_ptr<Peer>& p, Message&& m, bool closed) {
    if (inline_) {
      // Messages run the handler right here (drain_peer and the command
      // loop are never inside a handler); closed markers are deferred by
      // retire_peer instead of reaching this path.
      dispatch_message(p->id, std::move(m));
      return true;
    }
    InItem item{p, std::move(m), closed, {}};
    if (!lanes_[p->lane]->in.push(std::move(item))) return false;
    lane_dirty_ |= std::uint64_t{1} << p->lane;
    return true;
  }

  /// Close and unhook `p`, dropping queued output; the closed marker rides
  /// the inbound ring so it lands after every already-delivered message.
  void retire_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    p->closed = true;
    try {
      p->ep->close();
    } catch (...) {
    }
    if (p->registered && p->hook.fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, p->hook.fd, nullptr);
    }
    p->registered = false;
    p->out.clear();
    p->out_head = 0;
    p->out_bytes = 0;
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      auto it = registry_.find(p->id);
      if (it != registry_.end() && it->second == p) registry_.erase(it);
    }
    auto it = peers_.find(p->id);
    if (it != peers_.end() && it->second == p) {
      retired_.push_back(p);  // keep alive through this event batch
      peers_.erase(it);
    }
    if (inline_) {
      // Defer: retire_peer may run inside a handler (a reply that trips
      // the backpressure bound), and on_peer_closed must not re-enter.
      // The io loop delivers the backlog at top level.
      closed_backlog_.push_back(p);
    } else if (!push_in(p, Message{}, /*closed=*/true)) {
      closed_backlog_.push_back(p);
    }
  }

  /// Deliver parked closed markers: inline mode runs the handler (only
  /// ever called at the top level of the io loop), lane mode retries the
  /// ring push.
  void deliver_closed_backlog() {
    if (closed_backlog_.empty()) return;
    std::vector<std::shared_ptr<Peer>> list;
    list.swap(closed_backlog_);
    for (const auto& p : list) {
      if (inline_) {
        dispatch_closed(p->id);
      } else if (!push_in(p, Message{}, true)) {
        closed_backlog_.push_back(p);
      }
    }
  }

  /// Pull every decodable frame off `p` into its lane ring (frame
  /// batching).  A full ring parks the peer on the redrain list — no drop,
  /// no block.
  void drain_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    p->ready.store(false, std::memory_order_release);
    for (;;) {
      if (!inline_ && !lanes_[p->lane]->in.can_push()) {
        bump(ring_stalls_, c_ring_stalls_);
        if (!p->in_redrain) {
          p->in_redrain = true;
          redrain_.push_back(p);
        }
        return;
      }
      Message m;
      bool got = false;
      try {
        got = p->ep->try_recv(m);
      } catch (const ChannelClosed&) {
        retire_peer(p);
        return;
      } catch (const std::exception& e) {
        // Frame-decode error from a misbehaving transport: close and let
        // the shell detach it like a crashed cluster member.
        std::fprintf(stderr, "hdsm reactor: closing peer %llu: %s\n",
                     static_cast<unsigned long long>(p->id), e.what());
        retire_peer(p);
        return;
      }
      if (!got) return;
      bump(frames_in_, c_frames_in_);
      push_in(p, std::move(m), false);
    }
  }

  void arm_epollout(Peer& p) {
    if (p.hook.fd < 0 || p.epollout || !p.registered) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.ptr = &p;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, p.hook.fd, &ev);
    p.epollout = true;
  }

  void disarm_epollout(Peer& p) {
    if (p.hook.fd < 0 || !p.epollout || !p.registered) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &p;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, p.hook.fd, &ev);
    p.epollout = false;
  }

  void enqueue_out(const std::shared_ptr<Peer>& p, Message&& m) {
    if (p->closed || p->dead.load(std::memory_order_acquire)) return;
    const std::size_t sz = m.wire_size();
    if (p->out_bytes + sz > opts_.max_write_queue_bytes) {
      // Slow-consumer eviction (docs/TRANSPORT.md): bounding memory wins
      // over keeping a peer that has stopped draining its socket.  The
      // shell sees the standard closed path and detaches it.
      bump(backpressure_closes_, c_backpressure_);
      std::fprintf(stderr,
                   "hdsm reactor: evicting slow consumer peer %llu "
                   "(%zu queued bytes)\n",
                   static_cast<unsigned long long>(p->id), p->out_bytes);
      retire_peer(p);
      return;
    }
    p->out.push_back(std::move(m));
    p->out_bytes += sz;
    if (!p->in_flush) {
      p->in_flush = true;
      flush_list_.push_back(p);
    }
  }

  /// Hand the queued FIFO to the endpoint in gathered batches.  Partial
  /// progress (kernel buffer full) arms EPOLLOUT and leaves the tail
  /// queued.
  void flush_peer(const std::shared_ptr<Peer>& p) {
    if (p->closed) return;
    try {
      if (p->ep->wants_write() && !p->ep->flush_writes()) {
        arm_epollout(*p);
        return;
      }
      while (p->out_head < p->out.size()) {
        const std::size_t n = p->out.size() - p->out_head;
        const std::size_t k = p->ep->send_some(p->out.data() + p->out_head, n);
        if (k > 0) {
          bump(frames_out_, c_frames_out_, k);
          bump(flush_batches_, c_flush_batches_);
          for (std::size_t i = 0; i < k; ++i) {
            p->out_bytes -= p->out[p->out_head + i].wire_size();
          }
          p->out_head += k;
        }
        if (k < n || p->ep->wants_write()) {
          arm_epollout(*p);
          break;
        }
      }
    } catch (const std::exception&) {
      retire_peer(p);
      return;
    }
    if (p->out_head >= p->out.size()) {
      p->out.clear();
      p->out_head = 0;
      if (!p->ep->wants_write()) disarm_epollout(*p);
    } else if (p->out_head > 1024) {
      p->out.erase(p->out.begin(),
                   p->out.begin() + static_cast<std::ptrdiff_t>(p->out_head));
      p->out_head = 0;
    }
  }

  /// Attempt every peer's writes queued this iteration: whatever one
  /// iteration queued for a peer leaves as one gathered send.
  void flush_queued() {
    if (flush_list_.empty()) return;
    if (g_queue_bytes_ != nullptr) {
      std::int64_t total = 0;
      for (const auto& p : flush_list_) {
        if (!p->closed) total += static_cast<std::int64_t>(p->out_bytes);
      }
      g_queue_bytes_->set(total);
    }
    obs::SpanScope span(opts_.telemetry, obs::SpanKind::ReactorFlush,
                        flush_list_.size());
    // flush_peer never enqueues, so nothing appends during the walk.
    for (const auto& p : flush_list_) {
      p->in_flush = false;
      flush_peer(p);
    }
    flush_list_.clear();
  }

  void install_peer(const std::shared_ptr<Peer>& p) {
    peers_[p->id] = p;
    if (p->hook.fd >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;  // level-triggered: pre-add data re-fires
      ev.data.ptr = p.get();
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, p->hook.fd, &ev) != 0) {
        retire_peer(p);
        return;
      }
      p->registered = true;
    }
    if (p->hook.needs_service) service_.push_back(p);
    drain_peer(p);  // anything that arrived before the install
  }

  /// Periodic endpoint maintenance (fault holdback flushes), due every
  /// kServiceInterval.
  void service_endpoints(std::chrono::steady_clock::time_point& next) {
    const auto now = std::chrono::steady_clock::now();
    if (now < next) return;
    next = now + kServiceInterval;
    std::vector<std::shared_ptr<Peer>> keep;
    for (const auto& p : service_) {
      if (p->closed) continue;
      try {
        p->ep->service();
      } catch (const std::exception&) {
        retire_peer(p);
        continue;
      }
      drain_peer(p);
      keep.push_back(p);
    }
    service_ = std::move(keep);
  }

  int compute_timeout(std::chrono::steady_clock::time_point next_service) {
    if (stop_.load(std::memory_order_acquire) || !redrain_.empty() ||
        !closed_backlog_.empty() || !flush_waiters_.empty()) {
      return 0;
    }
    // Only take a clock reading when a service tick is pending: on a
    // single core every instruction between the last reply and re-blocking
    // delays the next request.
    if (service_.empty()) return -1;
    const auto now = std::chrono::steady_clock::now();
    if (next_service <= now) return 0;
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(next_service -
                                                              now)
            .count() +
        1);
  }

  /// Deliver one flush barrier's sentinels to every lane ring —
  /// all-or-nothing, so a full ring just retries next iteration.
  bool push_flush_sentinels(const std::shared_ptr<FlushTicket>& t) {
    for (const auto& ln : lanes_) {
      if (!ln->in.can_push()) return false;
    }
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
      InItem item;
      item.ticket = t;
      lanes_[l]->in.push(std::move(item));
      lane_dirty_ |= std::uint64_t{1} << l;
    }
    return true;
  }

  void service_flush_waiters() {
    if (flush_waiters_.empty() || !closed_backlog_.empty() ||
        !redrain_.empty()) {
      return;
    }
    if (inline_) {
      // No lanes to chase: every event queued before this point already ran
      // its handler on this thread, so the barrier settles right here.
      for (auto& t : flush_waiters_) ack(*t);
      flush_waiters_.clear();
      return;
    }
    std::erase_if(flush_waiters_, [this](const auto& t) {
      return push_flush_sentinels(t);
    });
  }

  void io_loop() {
    if (opts_.telemetry != nullptr) {
      opts_.telemetry->set_thread_label("io");
    }
    if (inline_) tl_inline = this;
    std::vector<std::shared_ptr<Peer>> local_ready;
    std::vector<Command> cmds;
    auto next_service = std::chrono::steady_clock::now() + kServiceInterval;
    for (;;) {
      const int timeout = compute_timeout(next_service);
      std::array<epoll_event, 64> events;
      int ne = ::epoll_wait(epfd_, events.data(),
                            static_cast<int>(events.size()), timeout);
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      retired_.clear();  // previous batch's pointers are dead now
      if (ne < 0) ne = 0;  // EINTR
      const bool stopping = stop_.load(std::memory_order_acquire);
      {
        obs::SpanScope span(ne > 0 ? opts_.telemetry : nullptr,
                            obs::SpanKind::ReactorWake);
        for (int i = 0; i < ne; ++i) {
          if (events[i].data.ptr == nullptr) {
            continue;  // wake eventfd (edge-triggered, never read)
          }
          Peer* praw = static_cast<Peer*>(events[i].data.ptr);
          auto it = peers_.find(praw->id);
          if (it == peers_.end() || it->second.get() != praw) continue;
          std::shared_ptr<Peer> p = it->second;
          if ((events[i].events & EPOLLOUT) != 0) flush_peer(p);
          if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
            drain_peer(p);
          }
        }
        // Foreign commands (attach / detach / master sends).
        {
          std::lock_guard<std::mutex> lk(inbox_mu_);
          cmds.swap(inbox_);
        }
        for (Command& c : cmds) {
          switch (c.kind) {
            case Command::Kind::Add:
              install_peer(c.peer);
              break;
            case Command::Kind::Remove:
              // Deliver what the endpoint already queued, then retire: the
              // blocking shells' drain-then-ChannelClosed semantics.
              drain_peer(c.peer);
              retire_peer(c.peer);
              break;
            case Command::Kind::Send:
              enqueue_out(c.peer, std::move(c.m));
              break;
            case Command::Kind::Flush:
              // Serviced at the end of the iteration, after the writes the
              // earlier commands queued have been attempted and any failure
              // retires pushed their closed markers.
              flush_waiters_.push_back(std::move(c.ticket));
              break;
          }
        }
        cmds.clear();
        // Callback-funnel peers (in-process channels).
        {
          std::lock_guard<std::mutex> lk(signal_->mu);
          local_ready.swap(signal_->ready);
        }
        for (const auto& p : local_ready) drain_peer(p);
        local_ready.clear();
        // Completions from every lane.
        for (const auto& ln : lanes_) {
          OutItem item;
          while (ln->out.pop(item)) {
            enqueue_out(item.peer, std::move(item.m));
            item.peer.reset();
          }
        }
        // Ring-full retries.
        if (!redrain_.empty()) {
          std::vector<std::shared_ptr<Peer>> list;
          list.swap(redrain_);
          for (const auto& p : list) {
            p->in_redrain = false;
            drain_peer(p);
          }
        }
        deliver_closed_backlog();
        if (!service_.empty()) service_endpoints(next_service);
        flush_queued();
        service_flush_waiters();
      }
      wake_dirty_lanes();
      if (stopping) break;
    }
    // Shutdown: retire every live peer (their queued inbound frames and
    // closed markers still flow to the lanes), then hand off and exit.
    std::vector<std::shared_ptr<Peer>> live;
    live.reserve(peers_.size());
    for (auto& [id, p] : peers_) live.push_back(p);
    for (const auto& p : live) {
      drain_peer(p);
      retire_peer(p);
    }
    for (;;) {
      wake_dirty_lanes();
      if (closed_backlog_.empty() && redrain_.empty()) break;
      std::vector<std::shared_ptr<Peer>> list;
      list.swap(redrain_);
      for (const auto& p : list) {
        p->in_redrain = false;
        drain_peer(p);
        retire_peer(p);
      }
      deliver_closed_backlog();
      std::this_thread::yield();
    }
    retired_.clear();
    // Release any barrier still parked here: its guarantee is moot once the
    // reactor is stopping, and the caller must not hang.
    for (auto& t : flush_waiters_) {
      std::lock_guard<std::mutex> lk(t->mu);
      t->remaining = 0;
      t->cv.notify_all();
    }
    flush_waiters_.clear();
    io_running_.store(false, std::memory_order_release);
    for (auto& ln : lanes_) wake_lane(*ln);
    tl_inline = nullptr;
  }

  // -- lane internals ---------------------------------------------------------

  void lane_loop(std::uint32_t lane) {
    if (opts_.telemetry != nullptr) {
      opts_.telemetry->set_thread_label("lane-" + std::to_string(lane));
    }
    std::unordered_map<PeerId, std::shared_ptr<Peer>> cache;
    LaneCtx ctx;
    ctx.impl = this;
    ctx.lane = lane;
    ctx.cache = &cache;
    tl_lane = &ctx;
    Lane& ln = *lanes_[lane];
    for (;;) {
      bool any = false;
      InItem item;
      while (ln.in.pop(item)) {
        any = true;
        if (item.ticket) {  // flush sentinel: everything before it landed
          ack(*item.ticket);
          item.ticket.reset();
          continue;
        }
        const PeerId id = item.peer->id;
        if (item.closed) {
          cache.erase(id);
          dispatch_closed(id);
        } else {
          cache.emplace(id, item.peer);
          dispatch_message(id, std::move(item.m));
        }
        item.peer.reset();
      }
      // One io wake for every completion this sweep produced.
      if (ctx.wake_io) {
        ctx.wake_io = false;
        signal_->wake();
      }
      if (any) continue;
      if (stop_.load(std::memory_order_acquire) &&
          !io_running_.load(std::memory_order_acquire)) {
        break;
      }
      std::unique_lock<std::mutex> lk(ln.mu);
      if (!ln.signaled) {
        ln.cv.wait_for(lk, std::chrono::milliseconds(100),
                       [&ln] { return ln.signaled; });
      }
      ln.signaled = false;
    }
    tl_lane = nullptr;
  }
};

thread_local Reactor::Impl::LaneCtx* Reactor::Impl::tl_lane = nullptr;
thread_local Reactor::Impl* Reactor::Impl::tl_inline = nullptr;

Reactor::Reactor(const ReactorOptions& opts, ReactorHandler& handler)
    : impl_(std::make_unique<Impl>(opts, handler)) {}

Reactor::~Reactor() { impl_->stop(); }

void Reactor::add_peer(PeerId id, std::shared_ptr<Endpoint> ep,
                       std::uint32_t lane) {
  impl_->add_peer(id, std::move(ep), lane);
}

void Reactor::remove_peer(PeerId id) { impl_->remove_peer(id); }

void Reactor::send(PeerId id, Message m) { impl_->send(id, std::move(m)); }

void Reactor::flush() { impl_->flush(); }

void Reactor::stop() { impl_->stop(); }

ReactorStats Reactor::stats() const { return impl_->stats(); }

}  // namespace hdsm::msg
