// Tests for the mpsim message-passing machine: point-to-point semantics,
// virtual-time accounting, determinism, failure propagation.
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mpsim/machine.h"
#include "support/error.h"
#include "support/status.h"

namespace parfact::mpsim {
namespace {

/// Posts a receive on (source, tag) and waits for it.
template <typename T>
std::vector<T> post_wait(Comm& c, int source, int tag) {
  Request r = c.irecv(source, tag);
  return c.wait_vec<T>(r);
}

TEST(Mpsim, SingleRankRuns) {
  const RunStats s = run_spmd(1, {}, [](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    c.advance_compute(1000);
  });
  EXPECT_GT(s.makespan, 0.0);
  EXPECT_EQ(s.total_messages, 0);
}

TEST(Mpsim, PingPong) {
  const RunStats s = run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> payload{1.0, 2.0, 3.0};
      c.send_vec(1, /*tag=*/7, payload);
      const auto back = post_wait<double>(c, 1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 6.0);
    } else {
      auto v = post_wait<double>(c, 0, 7);
      for (auto& x : v) x *= 2.0;
      c.send_vec(0, 8, v);
    }
  });
  EXPECT_EQ(s.total_messages, 2);
  EXPECT_EQ(s.total_bytes, 2 * 3 * 8);
  // Two messages' latency must appear in the makespan.
  EXPECT_GE(s.makespan, 2 * MachineModel{}.alpha);
}

TEST(Mpsim, FifoOrderPerSourceAndTag) {
  run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 10; ++k) {
        std::vector<int> v{k};
        c.send_vec(1, 3, v);
      }
    } else {
      for (int k = 0; k < 10; ++k) {
        const auto v = post_wait<int>(c, 0, 3);
        ASSERT_EQ(v[0], k);
      }
    }
  });
}

TEST(Mpsim, TagsAreIndependentChannels) {
  run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a{1}, b{2};
      c.send_vec(1, 100, a);
      c.send_vec(1, 200, b);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(post_wait<int>(c, 0, 200)[0], 2);
      EXPECT_EQ(post_wait<int>(c, 0, 100)[0], 1);
    }
  });
}

TEST(Mpsim, RecvWaitsForVirtualArrival) {
  const MachineModel model{};
  run_spmd(2, model, [&model](Comm& c) {
    if (c.rank() == 0) {
      c.advance_compute(2'000'000'000);  // 1 virtual second of work
      std::vector<int> v{42};
      c.send_vec(1, 1, v);
    } else {
      const auto v = post_wait<int>(c, 0, 1);
      EXPECT_EQ(v[0], 42);
      // The receiver's clock must include the sender's compute second.
      EXPECT_GE(c.now(), 1.0);
    }
  });
}

TEST(Mpsim, SenderClockOnlyPaysAlpha) {
  run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      c.send(1, 5, big.data(), big.size());
      // Buffered send: clock advances by alpha only, not the transfer time.
      EXPECT_LT(c.now(), 1e-4);
    } else {
      (void)post_wait<std::byte>(c, 0, 5);
      EXPECT_GT(c.now(), 1e-3);  // ~1 MB at 1 GB/s
    }
  });
}

TEST(Mpsim, VirtualTimeIsDeterministic) {
  auto program = [](Comm& c) {
    // A little irregular communication ring.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.advance_compute(1000 * (c.rank() + 1));
    std::vector<double> v{static_cast<double>(c.rank())};
    c.send_vec(next, 9, v);
    (void)post_wait<double>(c, prev, 9);
  };
  const RunStats a = run_spmd(7, {}, program);
  const RunStats b = run_spmd(7, {}, program);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rank_time, b.rank_time);
  EXPECT_EQ(a.total_messages, b.total_messages);
}

TEST(Mpsim, MemoryPeakTracking) {
  const RunStats s = run_spmd(2, {}, [](Comm& c) {
    c.memory_add(100);
    c.memory_add(50);
    c.memory_sub(120);
    c.memory_add(10);
  });
  EXPECT_EQ(s.rank_peak_bytes[0], 150);
  EXPECT_EQ(s.rank_peak_bytes[1], 150);
}

TEST(Mpsim, ComputeTimeTracked) {
  const RunStats s = run_spmd(1, {}, [](Comm& c) {
    c.advance_compute(static_cast<count_t>(MachineModel{}.flop_rate));
  });
  EXPECT_NEAR(s.rank_compute[0], 1.0, 1e-9);
}

TEST(Mpsim, FailurePropagatesWithoutDeadlock) {
  EXPECT_THROW(run_spmd(4,
                        {},
                        [](Comm& c) {
                          if (c.rank() == 2) {
                            throw Error("rank 2 exploded");
                          }
                          // Everyone else waits for a message that never
                          // comes; abort must wake them.
                          (void)post_wait<int>(c, 3, 77);
                        }),
               Error);
}

TEST(Mpsim, ModelParametersShapeCosts) {
  MachineModel fast{};
  fast.beta = 1e-12;
  MachineModel slow{};
  slow.beta = 1e-6;
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      c.send(1, 1, big.data(), big.size());
    } else {
      (void)post_wait<std::byte>(c, 0, 1);
    }
  };
  const RunStats f = run_spmd(2, fast, program);
  const RunStats s = run_spmd(2, slow, program);
  EXPECT_GT(s.makespan, 100 * f.makespan);
}

// --- Fault injection -------------------------------------------------------

TEST(MpsimFault, InactivePlanMatchesLegacyPath) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v{11};
      c.send_vec(1, 5, v);
    } else {
      EXPECT_EQ(post_wait<int>(c, 0, 5)[0], 11);
    }
  };
  const RunStats legacy = run_spmd(2, {}, program);
  const RunStats plan = run_spmd(2, {}, FaultPlan{}, program);
  EXPECT_EQ(legacy.makespan, plan.makespan);
  EXPECT_EQ(plan.total_retransmits, 0);
  EXPECT_EQ(plan.total_dropped, 0);
}

TEST(MpsimFault, HealsDropsPreservingContentAndOrder) {
  FaultPlan faults;
  faults.seed = 9;
  faults.drop_rate = 0.2;
  faults.duplicate_rate = 0.1;
  faults.delay_rate = 0.1;
  faults.ack_drop_rate = 0.1;
  const int kMessages = 60;
  const RunStats s = run_spmd(2, {}, faults, [&](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < kMessages; ++k) {
        std::vector<int> v{k, 2 * k};
        c.send_vec(1, 3, v);
      }
    } else {
      for (int k = 0; k < kMessages; ++k) {
        const auto v = post_wait<int>(c, 0, 3);
        ASSERT_EQ(v.size(), 2u);
        // Dedup + retry must preserve both content and FIFO order: no
        // message lost, duplicated into the stream, or reordered.
        ASSERT_EQ(v[0], k);
        ASSERT_EQ(v[1], 2 * k);
      }
    }
  });
  EXPECT_GT(s.total_dropped, 0);
  EXPECT_GE(s.total_retransmits, s.total_dropped);
}

TEST(MpsimFault, FaultScheduleIsDeterministicInSeed) {
  FaultPlan faults;
  faults.seed = 123;
  faults.drop_rate = 0.15;
  faults.duplicate_rate = 0.05;
  auto program = [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int k = 0; k < 20; ++k) {
      std::vector<double> v{static_cast<double>(k)};
      c.send_vec(next, 4, v);
      ASSERT_EQ(post_wait<double>(c, prev, 4)[0], k);
    }
  };
  const RunStats a = run_spmd(5, {}, faults, program);
  const RunStats b = run_spmd(5, {}, faults, program);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rank_time, b.rank_time);
  EXPECT_EQ(a.total_retransmits, b.total_retransmits);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
}

TEST(MpsimFault, RetriesCostVirtualTime) {
  FaultPlan faults;
  faults.seed = 31;
  faults.drop_rate = 0.3;
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 40; ++k) {
        std::vector<int> v{k};
        c.send_vec(1, 2, v);
      }
    } else {
      for (int k = 0; k < 40; ++k) (void)post_wait<int>(c, 0, 2);
    }
  };
  const RunStats clean = run_spmd(2, {}, program);
  const RunStats faulty = run_spmd(2, {}, faults, program);
  EXPECT_GT(faulty.total_dropped, 0);
  // Lost copies are healed by retransmission, which is charged to the
  // virtual clock (backoff + repeated alpha).
  EXPECT_GT(faulty.makespan, clean.makespan);
}

TEST(MpsimFault, StallWindowDelaysRank) {
  FaultPlan faults;
  faults.stalls.push_back({/*rank=*/0, /*at=*/0.0, /*duration=*/5.0});
  const RunStats s = run_spmd(2, {}, faults, [](Comm& c) {
    if (c.rank() == 0) {
      c.advance_compute(1000);  // crosses the stall window
      std::vector<int> v{1};
      c.send_vec(1, 6, v);
    } else {
      EXPECT_EQ(post_wait<int>(c, 0, 6)[0], 1);
    }
  });
  // Both ranks see the stall: rank 0 directly, rank 1 through the message
  // arrival time.
  EXPECT_GE(s.rank_time[0], 5.0);
  EXPECT_GE(s.rank_time[1], 5.0);
}

TEST(MpsimFault, RecvTimeoutDiagnosedNotHung) {
  FaultPlan faults;
  faults.drop_rate = 1e-9;  // activates the fault path
  faults.recv_timeout_host_seconds = 0.25;
  try {
    (void)run_spmd(2, {}, faults, [](Comm& c) {
      if (c.rank() == 1) {
        Request r = c.irecv(0, 99);  // rank 0 never sends
        (void)c.wait(r);
        FAIL() << "wait returned without a sender";
      }
    });
    FAIL() << "expected a timeout error";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCommTimeout);
    EXPECT_NE(e.status().message.find("timed out"), std::string::npos);
  }
}

TEST(MpsimFault, ExhaustedRetriesFailCleanly) {
  FaultPlan faults;
  faults.drop_rate = 1.0;
  faults.max_retries = 2;
  try {
    (void)run_spmd(2, {}, faults, [](Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> v{1};
        c.send_vec(1, 8, v);
      } else {
        (void)post_wait<int>(c, 0, 8);
      }
    });
    FAIL() << "expected a delivery failure";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCommFailure);
  } catch (const Error&) {
    // The receiver may observe the sender's abort instead; equally clean.
  }
}

// --- Payload integrity and plan validation ----------------------------------

TEST(Mpsim, WaitVecSizeMismatchIsDataCorruption) {
  try {
    (void)run_spmd(2, {}, [](Comm& c) {
      if (c.rank() == 0) {
        std::vector<std::byte> odd(12);  // not a multiple of sizeof(double)
        c.send(1, 4, odd.data(), odd.size());
      } else {
        (void)post_wait<double>(c, 0, 4);
        FAIL() << "wait_vec accepted a truncated payload";
      }
    });
    FAIL() << "expected kDataCorruption";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_NE(e.status().message.find("element size"), std::string::npos);
  } catch (const Error&) {
    // The sender may observe the receiver's abort instead; equally clean.
  }
}

TEST(MpsimFault, PlanValidationRejectsBadFields) {
  const auto expect_invalid = [](FaultPlan plan) {
    try {
      (void)run_spmd(2, {}, plan, [](Comm&) {});
      FAIL() << "expected kInvalidInput";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
      EXPECT_NE(e.status().message.find("FaultPlan"), std::string::npos);
    }
  };
  FaultPlan p;
  p.drop_rate = -0.1;
  expect_invalid(p);
  p = FaultPlan{};
  p.duplicate_rate = 1.5;
  expect_invalid(p);
  p = FaultPlan{};
  p.max_retries = 0;
  expect_invalid(p);
  p = FaultPlan{};
  p.retry_backoff_seconds = 0.0;
  expect_invalid(p);
  p = FaultPlan{};
  p.crashes.push_back({/*rank=*/5, /*at=*/1.0});  // only ranks 0..1 exist
  expect_invalid(p);
  p = FaultPlan{};
  p.spare_ranks = -1;
  expect_invalid(p);
  // Host-time budgets become steady_clock deadlines: one past the clock's
  // range (or +inf, the natural "no limit") would expire at once.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double budget : {1e12, kInf}) {
    p = FaultPlan{};
    p.recv_timeout_host_seconds = budget;
    expect_invalid(p);
    p = FaultPlan{};
    p.run_timeout_host_seconds = budget;
    expect_invalid(p);
  }
  // The cap itself is accepted.
  p = FaultPlan{};
  p.recv_timeout_host_seconds = 1e6;
  p.run_timeout_host_seconds = 1e6;
  EXPECT_NO_THROW((void)run_spmd(2, {}, p, [](Comm&) {}));
}

// --- Crash model ------------------------------------------------------------

TEST(MpsimCrash, RankDiesAtItsCrashTimeAndRunIsDiagnosed) {
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.5});
  std::atomic<bool> survived_past_crash{false};
  try {
    (void)run_spmd(2, {}, faults, [&](Comm& c) {
      if (c.rank() == 1) {
        c.advance_seconds(1.0);  // crosses the crash instant
        survived_past_crash.store(true);
      }
    });
    FAIL() << "expected kRankFailure";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kRankFailure);
    EXPECT_NE(e.status().message.find("no spare"), std::string::npos);
  }
  EXPECT_FALSE(survived_past_crash.load());
}

TEST(MpsimCrash, SendToDeadRankRaisesRankFailure) {
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.0});
  std::atomic<int> rank_failures{0};
  try {
    (void)run_spmd(2, {}, faults, [&](Comm& c) {
      if (c.rank() == 0) {
        // Let the crash fire first (host-time ordering), then send.
        for (int i = 0; i < 200; ++i) {
          std::vector<int> v{i};
          try {
            c.send_vec(1, 3, v);
          } catch (const StatusError& e) {
            EXPECT_EQ(e.status().code, StatusCode::kRankFailure);
            rank_failures.fetch_add(1);
            throw;
          }
        }
      }
    });
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kRankFailure);
  }
  // Either the send diagnosed the dead destination directly, or every send
  // landed in the retained log before the crash fired and run_spmd
  // synthesized the failure — both end in kRankFailure above.
}

TEST(MpsimCrash, SparesIdleWhenNoCrashFires) {
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/0, /*at=*/1e9});  // far past the run
  faults.spare_ranks = 1;
  const RunStats s = run_spmd(2, {}, faults, [](Comm& c) {
    if (c.is_spare()) {
      const Takeover t = c.await_failure();
      EXPECT_EQ(t.rank, -1);  // released at run end, never activated
      return;
    }
    c.advance_seconds(0.01);
  });
  EXPECT_EQ(s.rank_crashes, 0);
  EXPECT_EQ(s.ranks_recovered, 0);
  ASSERT_EQ(s.rank_time.size(), 2u);  // stats cover base ranks only
}

TEST(MpsimCrash, SpareOutlastsTheReceiveTimeoutInAHealthyRun) {
  // The receive timeout bounds posted waits, not a spare's idle wait: the
  // base ranks here run twice as long as it in host time and the spare
  // must still be released at run end, not time out.
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/0, /*at=*/1e9});  // never fires
  faults.spare_ranks = 1;
  faults.recv_timeout_host_seconds = 0.25;
  std::atomic<int> adopted{-2};
  try {
    (void)run_spmd(2, {}, faults, [&](Comm& c) {
      if (c.is_spare()) {
        adopted = c.await_failure().rank;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    });
  } catch (const Error& e) {
    FAIL() << e.what();
  }
  EXPECT_EQ(adopted.load(), -1);
}

TEST(MpsimCrash, BaseRankErrorReleasesTheWaitingSpare) {
  // A base rank that throws aborts the run; the abort must wake the idle
  // spare (its await_failure raises the abort, not a timeout), and the run
  // reports the base rank's error.
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/0, /*at=*/1e9});  // never fires
  faults.spare_ranks = 1;
  std::atomic<bool> spare_released{false};
  std::atomic<bool> spare_timed_out{false};
  try {
    (void)run_spmd(2, {}, faults, [&](Comm& c) {
      if (c.is_spare()) {
        try {
          (void)c.await_failure();
        } catch (const StatusError& e) {
          spare_timed_out = e.status().code == StatusCode::kCommTimeout;
          throw;
        } catch (const Error&) {
          spare_released = true;
          throw;
        }
        return;
      }
      if (c.rank() == 1) throw Error("rank 1 exploded");
    });
    FAIL() << "expected rank 1's error";
  } catch (const StatusError& e) {
    FAIL() << "unexpected status error: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 exploded"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(spare_released.load());
  EXPECT_FALSE(spare_timed_out.load());
}

TEST(MpsimCrash, SpareAdoptsAndReplaysDeterministically) {
  // Rank 1 streams 10 numbered messages to rank 0, crashing mid-stream.
  // Its spare adopts, replays from scratch (no checkpoint), and the
  // sequence dedup at rank 0 makes the replayed prefix invisible: rank 0
  // must see every value exactly once, in order.
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.45});
  faults.spare_ranks = 1;
  auto rank1_work = [](Comm& c) {
    for (int k = 0; k < 10; ++k) {
      c.advance_seconds(0.1);
      std::vector<int> v{k};
      c.send_vec(0, 11, v);
    }
  };
  const RunStats s = run_spmd(2, {}, faults, [&](Comm& c) {
    if (c.is_spare()) {
      const Takeover t = c.await_failure();
      if (t.rank < 0) return;
      EXPECT_EQ(t.rank, 1);
      EXPECT_DOUBLE_EQ(t.failed_at, 0.45);
      EXPECT_TRUE(t.checkpoint.empty());  // rank 1 never checkpointed
      rank1_work(c);  // full replay as the adopted rank 1
      return;
    }
    if (c.rank() == 0) {
      for (int k = 0; k < 10; ++k) {
        ASSERT_EQ(post_wait<int>(c, 1, 11)[0], k);
      }
    } else {
      rank1_work(c);
    }
  });
  EXPECT_EQ(s.rank_crashes, 1);
  EXPECT_EQ(s.ranks_recovered, 1);
  // The replacement re-ran the dead rank's life: its finish time includes
  // the death time plus the replay.
  EXPECT_GE(s.rank_time[1], 0.45 + 1.0);
  EXPECT_GT(s.recovery_overhead_seconds, 0.0);
}

TEST(MpsimCrash, CheckpointRestoreResumesSequencesMidStream) {
  // As above, but rank 1 checkpoints after 5 messages; the replacement
  // resumes from the checkpoint (messages 5..9 only) with restored
  // sequence numbers, and rank 0 still sees an unbroken stream.
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.72});
  faults.spare_ranks = 1;
  auto rank1_work = [](Comm& c, int from) {
    for (int k = from; k < 10; ++k) {
      c.advance_seconds(0.1);
      std::vector<int> v{k};
      c.send_vec(0, 11, v);
      if (k == 4) {
        std::vector<std::byte> blob(sizeof(int));
        const int next = k + 1;
        std::memcpy(blob.data(), &next, sizeof next);
        c.checkpoint_save(/*buddy=*/0, blob);
      }
    }
  };
  const RunStats s = run_spmd(2, {}, faults, [&](Comm& c) {
    if (c.is_spare()) {
      const Takeover t = c.await_failure();
      if (t.rank < 0) return;
      ASSERT_EQ(t.checkpoint.size(), sizeof(int));
      int next = 0;
      std::memcpy(&next, t.checkpoint.data(), sizeof next);
      EXPECT_EQ(next, 5);
      rank1_work(c, next);
      return;
    }
    if (c.rank() == 0) {
      for (int k = 0; k < 10; ++k) {
        ASSERT_EQ(post_wait<int>(c, 1, 11)[0], k);
      }
    } else {
      rank1_work(c, 0);
    }
  });
  EXPECT_EQ(s.ranks_recovered, 1);
  EXPECT_EQ(s.checkpoints_stored, 1);
  EXPECT_GT(s.checkpoint_bytes, 0);
}

TEST(MpsimCrash, TwoCrashesExhaustingSparesDiagnosed) {
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/0, /*at=*/0.1});
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.2});
  faults.spare_ranks = 1;  // only the first crash (rank 0) is covered
  try {
    (void)run_spmd(3, {}, faults, [](Comm& c) {
      if (c.is_spare()) {
        const Takeover t = c.await_failure();
        if (t.rank >= 0) c.advance_seconds(1.0);
        return;
      }
      c.advance_seconds(1.0);
    });
    FAIL() << "expected kRankFailure";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kRankFailure);
    EXPECT_NE(e.status().message.find("1"), std::string::npos);
  } catch (const Error&) {
    // Survivor-side abort propagation is equally clean.
  }
}

// --- Posted receives: irecv / wait / wait_any and the overlap stats --------

TEST(MpsimAsync, IrecvWaitDeliversPayloadAndArrival) {
  const RunStats s = run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_vec(1, 7, std::vector<double>{1.0, 2.0, 3.0});
    } else {
      Request r = c.irecv(0, 7);
      EXPECT_FALSE(r.done());
      const auto v = c.wait_vec<double>(r);
      ASSERT_EQ(v.size(), 3u);
      EXPECT_DOUBLE_EQ(v[2], 3.0);
      EXPECT_TRUE(r.done());
      // Waiting advanced the clock at least to the arrival time.
      EXPECT_GE(c.now(), MachineModel{}.alpha);
    }
  });
  EXPECT_EQ(s.total_messages, 1);
}

TEST(MpsimAsync, PrepostedIrecvOverlapsComputeReducingIdle) {
  // Sender computes one virtual second before sending. A receiver that
  // waits at once stalls that whole second; a receiver that preposts the
  // irecv and does its own second of work only pays the message latency.
  auto sender = [](Comm& c) {
    c.advance_compute(2'000'000'000);  // 1 s at the 2 Gflop/s default
    std::vector<int> v{42};
    c.send_vec(1, 3, v);
  };
  const RunStats blocking = run_spmd(2, {}, [&](Comm& c) {
    if (c.rank() == 0) { sender(c); return; }
    EXPECT_EQ(post_wait<int>(c, 0, 3)[0], 42);
  });
  const RunStats overlapped = run_spmd(2, {}, [&](Comm& c) {
    if (c.rank() == 0) { sender(c); return; }
    Request r = c.irecv(0, 3);
    c.advance_compute(2'000'000'000);  // overlap the sender's second
    EXPECT_EQ(c.wait_vec<int>(r)[0], 42);
  });
  EXPECT_GT(blocking.idle_wait_seconds, 0.9);
  EXPECT_LT(overlapped.idle_wait_seconds, 0.1);
  EXPECT_GT(overlapped.overlap_efficiency, blocking.overlap_efficiency);
  EXPECT_GE(blocking.overlap_efficiency, 0.0);
  EXPECT_LE(overlapped.overlap_efficiency, 1.0);
}

TEST(MpsimAsync, MultipleIrecvsKeepFifoUnderOutOfOrderWaits) {
  run_spmd(2, {}, [](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 3; ++k) {
        std::vector<int> v{k};
        c.send_vec(1, 5, v);
      }
    } else {
      Request r0 = c.irecv(0, 5);
      Request r1 = c.irecv(0, 5);
      Request r2 = c.irecv(0, 5);
      // Completion order is the caller's choice; message order is FIFO by
      // posting order regardless.
      EXPECT_EQ(c.wait_vec<int>(r2)[0], 2);
      EXPECT_EQ(c.wait_vec<int>(r0)[0], 0);
      EXPECT_EQ(c.wait_vec<int>(r1)[0], 1);
    }
  });
}

TEST(MpsimAsync, WaitAnyClaimsArrivedFirstElseWaitsEarliestPosted) {
  constexpr std::size_t kBig = 8u << 20;  // ~8 ms on the default link
  double sync_arrival = 0.0;
  double big_arrival = 0.0;
  const RunStats s = run_spmd(2, {}, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> big(kBig);
      c.send(1, 1, big.data(), big.size());
      c.send_vec(1, 2, std::vector<int>{7});
      c.send_vec(1, 3, std::vector<int>{0});  // sync, sent after the others
      return;
    }
    std::vector<Request> pool;
    pool.push_back(c.irecv(0, 1));  // posted first, arrives last
    pool.push_back(c.irecv(0, 2));
    // A sender's messages reach the mailbox in send order, so once the sync
    // is here both pooled messages are too, and the small one (sent before
    // the sync) has also arrived in virtual time; the big one has not.
    (void)post_wait<int>(c, 0, 3);
    sync_arrival = c.now();
    // The arrived message is claimed first although it was posted later,
    // and claiming it does not move the clock.
    EXPECT_EQ(c.wait_any(pool), 1u);
    EXPECT_EQ(c.now(), sync_arrival);
    EXPECT_EQ(c.wait_vec<int>(pool[1])[0], 7);
    // Nothing else has arrived: the earliest-posted request is waited and
    // the clock moves to its arrival.
    EXPECT_EQ(c.wait_any(pool), 0u);
    big_arrival = pool[0].arrival();
    EXPECT_GT(big_arrival, sync_arrival);
    EXPECT_EQ(c.now(), big_arrival);
    EXPECT_EQ(c.wait(pool[0]).size(), kBig);
  });
  // Rank 1 idled up to the sync's arrival, then from there to the big
  // message's; rank 0 never waited.
  EXPECT_EQ(s.idle_wait_seconds, sync_arrival + (big_arrival - sync_arrival));
  EXPECT_EQ(s.wait_any_calls[1], 2);
  // The drained pool completed the later-posted request first.
  EXPECT_EQ(s.messages_completed_out_of_order, 1);
}

TEST(MpsimAsync, WaitTimeoutDiagnosedEvenWithInactivePlan) {
  // The host-time safety net must cover wait() even when no fault plan is
  // active — a lost nonblocking receive is a hang risk like any other.
  FaultPlan plan;  // all rates zero: plan inactive
  plan.recv_timeout_host_seconds = 0.25;
  try {
    (void)run_spmd(2, {}, plan, [](Comm& c) {
      if (c.rank() == 1) {
        Request r = c.irecv(0, 99);  // rank 0 never sends
        (void)c.wait(r);
        FAIL() << "wait returned without a sender";
      }
    });
    FAIL() << "expected a timeout error";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCommTimeout);
    EXPECT_NE(e.status().message.find("timed out"), std::string::npos);
  }
}

TEST(MpsimAsync, FaultsHealThroughIrecvWait) {
  FaultPlan faults;
  faults.seed = 77;
  faults.drop_rate = 0.5;
  faults.delay_rate = 0.25;
  faults.duplicate_rate = 0.25;
  const RunStats s = run_spmd(2, {}, faults, [](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 20; ++k) {
        std::vector<int> v{k};
        c.send_vec(1, 4, v);
      }
    } else {
      std::vector<Request> rs;
      for (int k = 0; k < 20; ++k) rs.push_back(c.irecv(0, 4));
      for (int k = 0; k < 20; ++k) {
        EXPECT_EQ(c.wait_vec<int>(rs[static_cast<std::size_t>(k)])[0], k);
      }
    }
  });
  // The retry protocol was actually exercised, not bypassed.
  EXPECT_GT(s.total_dropped, 0);
  EXPECT_GT(s.total_retransmits, 0);
}

TEST(MpsimAsync, InFlightHighWaterTracked) {
  // The high-water mark counts host deliveries, so the ordering is a host
  // flag: a sync message would itself be in flight, by a racy margin.
  std::atomic<bool> all_sent{false};
  const RunStats s = run_spmd(2, {}, [&](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < 5; ++k) {
        std::vector<int> v{k};
        c.send_vec(1, 1, v);
      }
      all_sent.store(true);
    } else {
      // All five messages delivered, none consumed yet.
      while (!all_sent.load()) std::this_thread::yield();
      for (int k = 0; k < 5; ++k) (void)post_wait<int>(c, 0, 1);
    }
  });
  EXPECT_EQ(s.max_in_flight_messages, 5);
}

TEST(MpsimAsync, WaitOnDeadRankRaisesRankFailureNotHang) {
  FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.0});
  faults.recv_timeout_host_seconds = 20.0;
  try {
    (void)run_spmd(2, {}, faults, [](Comm& c) {
      if (c.rank() == 0) {
        Request r = c.irecv(1, 7);  // rank 1 is dead before it can send
        (void)c.wait(r);
        FAIL() << "wait returned from a dead rank";
      }
    });
    FAIL() << "expected kRankFailure";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kRankFailure);
  } catch (const Error&) {
    // Abort propagation from the diagnosing rank is equally acceptable.
  }
}

}  // namespace
}  // namespace parfact::mpsim
