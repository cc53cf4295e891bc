// Scheduler and model-graph tests for the sysgen framework.
#include "sysgen/model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/blocks_memory.hpp"

namespace mbcosim::sysgen {
namespace {

const FixFormat kF16 = FixFormat::signed_fix(16, 0);

TEST(Model, CombinationalChainEvaluatesInOneCycle) {
  Model m("chain");
  auto& in = m.add<GatewayIn>("in", kF16);
  auto& c1 = m.add<Constant>("c1", Fix::from_int(kF16, 10));
  auto& sum = m.add<AddSub>("sum", AddSub::Mode::kAdd, in.out(), c1.out(),
                            kF16);
  auto& doubled = m.add<AddSub>("dbl", AddSub::Mode::kAdd, sum.out(),
                                sum.out(), kF16);
  auto& out = m.add<GatewayOut>("out", doubled.out());
  in.set(5);
  m.step();
  EXPECT_EQ(out.read_raw(), 30);  // (5 + 10) * 2, same cycle
}

TEST(Model, TopologicalOrderIsIndependentOfInsertionOrder) {
  // Insert consumer before producer: the scheduler must still evaluate
  // producer first.
  Model m("reorder");
  auto& in = m.add<GatewayIn>("in", kF16);
  // Create the consumer's input signal lazily through a constant chain.
  auto& c = m.add<Constant>("c", Fix::from_int(kF16, 1));
  auto& level1 = m.add<AddSub>("level1", AddSub::Mode::kAdd, in.out(),
                               c.out(), kF16);
  auto& level2 = m.add<AddSub>("level2", AddSub::Mode::kAdd, level1.out(),
                               c.out(), kF16);
  auto& level3 = m.add<AddSub>("level3", AddSub::Mode::kAdd, level2.out(),
                               c.out(), kF16);
  auto& out = m.add<GatewayOut>("out", level3.out());
  in.set(0);
  m.step();
  EXPECT_EQ(out.read_raw(), 3);
}

TEST(Model, AlgebraicLoopRejected) {
  Model m("loop");
  auto& in = m.add<GatewayIn>("in", kF16);
  Register& reg = m.add<Register>("tmp", Fix::from_raw(kF16, 0));
  auto& a = m.add<AddSub>("a", AddSub::Mode::kAdd, in.out(), reg.out(), kF16);
  // Close a purely combinational loop: b depends on a, a (re-wired) on b.
  auto& b = m.add<AddSub>("b", AddSub::Mode::kAdd, a.out(), in.out(), kF16);
  reg.connect_d(b.out());
  // Registered loop is fine.
  EXPECT_NO_THROW(m.step());

  Model m2("bad");
  auto& in2 = m2.add<GatewayIn>("in", kF16);
  Signal& fwd = m2.make_signal("fwd", kF16);
  auto& x = m2.add<AddSub>("x", AddSub::Mode::kAdd, in2.out(), fwd, kF16);
  auto& y = m2.add<AddSub>("y", AddSub::Mode::kAdd, x.out(), in2.out(), kF16);
  fwd.set_driver(&y);  // simulate a direct combinational feedback wire
  // The loop detector cannot order x and y.
  EXPECT_THROW(m2.elaborate(), SimError);
}

TEST(Model, SequentialBlocksBreakCycles) {
  // Accumulator: acc <= acc + 1 every cycle.
  Model m("acc");
  auto& one = m.add<Constant>("one", Fix::from_int(kF16, 1));
  Register& acc = m.add<Register>("acc", Fix::from_raw(kF16, 0));
  auto& next = m.add<AddSub>("next", AddSub::Mode::kAdd, acc.out(), one.out(),
                             kF16);
  acc.connect_d(next.out());
  auto& out = m.add<GatewayOut>("out", acc.out());
  m.run(5);
  EXPECT_EQ(out.read_raw(), 4);  // register output lags by one cycle
  m.step();
  EXPECT_EQ(out.read_raw(), 5);
}

TEST(Model, UnconnectedFeedbackRegisterRejected) {
  Model m("incomplete");
  m.add<Register>("reg", Fix::from_raw(kF16, 0));
  EXPECT_THROW(m.elaborate(), SimError);
}

TEST(Model, ResetRestoresInitialState) {
  Model m("reset");
  auto& one = m.add<Constant>("one", Fix::from_int(kF16, 1));
  Register& acc = m.add<Register>("acc", Fix::from_raw(kF16, 0));
  auto& next = m.add<AddSub>("next", AddSub::Mode::kAdd, acc.out(), one.out(),
                             kF16);
  acc.connect_d(next.out());
  auto& out = m.add<GatewayOut>("out", acc.out());
  m.run(10);
  EXPECT_EQ(m.cycle(), 10u);
  EXPECT_EQ(out.read_raw(), 9);
  m.reset();
  EXPECT_EQ(m.cycle(), 0u);
  m.step();
  EXPECT_EQ(out.read_raw(), 0);  // accumulator restarted from its init
}

TEST(Model, DuplicateSignalNamesRejected) {
  Model m("dup");
  m.make_signal("wire", kF16);
  EXPECT_THROW(m.make_signal("wire", kF16), SimError);
}

TEST(Model, AddAfterElaborationRejected) {
  Model m("frozen");
  m.add<Constant>("c", Fix::from_int(kF16, 1));
  m.elaborate();
  EXPECT_THROW(m.add<Constant>("late", Fix::from_int(kF16, 2)), SimError);
}

TEST(Model, FindBlockAndSignal) {
  Model m("find");
  auto& c = m.add<Constant>("c", Fix::from_int(kF16, 1));
  EXPECT_EQ(m.find_block("c"), &c);
  EXPECT_EQ(m.find_block("missing"), nullptr);
  EXPECT_NE(m.find_signal("c.out"), nullptr);
  EXPECT_EQ(m.find_signal("missing"), nullptr);
}

TEST(Model, ResourcesSumOverBlocks) {
  Model m("resources");
  auto& in = m.add<GatewayIn>("in", FixFormat::signed_fix(32, 0));
  auto& c = m.add<Constant>("c", Fix::from_raw(FixFormat::signed_fix(32, 0), 1));
  m.add<AddSub>("a", AddSub::Mode::kAdd, in.out(), c.out(),
                FixFormat::signed_fix(32, 0));
  m.add<AddSub>("b", AddSub::Mode::kAdd, in.out(), c.out(),
                FixFormat::signed_fix(32, 0));
  EXPECT_EQ(m.resources().slices, 2u * slices_for_adder(32));
}

/// One block of each stateful kind, driven with a fixed stimulus (after
/// 13 cycles the pipeline and delay heads are off zero and the FIFO is
/// partly filled).
struct StatefulDesign {
  Model model{"stateful"};
  GatewayIn* in = nullptr;
  GatewayIn* enable = nullptr;
  GatewayIn* clear = nullptr;
  GatewayIn* read = nullptr;

  StatefulDesign() {
    const FixFormat word = FixFormat::signed_fix(16, 4);
    const FixFormat flag = FixFormat::unsigned_fix(1, 0);
    in = &model.add<GatewayIn>("in", word);
    enable = &model.add<GatewayIn>("en", flag);
    clear = &model.add<GatewayIn>("rst", flag);
    read = &model.add<GatewayIn>("rd", flag);
    auto& count = model.add<Counter>("cnt", FixFormat::unsigned_fix(3, 0), 6,
                                     &enable->out(), &clear->out());
    auto& reg = model.add<Register>("reg", in->out(), Fix::from_raw(word, 5),
                                    &enable->out());
    model.add<Delay>("dly", in->out(), 3);
    model.add<AddSub>("pipe", AddSub::Mode::kAdd, in->out(), reg.out(), word,
                      2);
    std::vector<Fix> words;
    for (int i = 0; i < 6; ++i) {
      words.push_back(Fix::from_raw(FixFormat::unsigned_fix(8, 0), 11 * i + 3));
    }
    model.add<Rom>("rom", count.out(), words);
    model.add<SinglePortRam>("ram", 8, word, count.out(), in->out(),
                             enable->out());
    model.add<FifoBlock>("fifo", 3, word, in->out(), enable->out(),
                         read->out());
  }

  void run(int from, int to) {
    for (int c = from; c < to; ++c) {
      in->set_raw(c * 37 - 100);
      enable->set_bool(c % 3 != 0);
      clear->set_bool(c == 7);
      read->set_bool(c % 2 == 1);
      model.step();
    }
  }
};

std::string to_hex(const std::vector<unsigned char>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  for (const unsigned char byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 15];
  }
  return hex;
}

TEST(Model, CheckpointLayoutIsPinned) {
  // Model::save_state after 13 cycles: cycle, signal values in creation
  // order, then each block's state in creation order. Saved images must
  // keep loading, so these bytes must not change without a version bump.
  const std::string golden =
      "0d000000000000000d0000000000000058010000000000000000000000000000"
      "0000000000000000000000000000000003000000000000003301000000000000"
      "e900000000000000d20100000000000019000000000000003000000000000000"
      "c400000000000000000000000000000001000000000000000b00000000000000"
      "5801000000000000000000000000000000000000000000000000000000000000"
      "03000000000000003301000000000000030000000e0100000000000033010000"
      "0000000058010000000000000200000041020000000000008b02000000000000"
      "24000000000000000800000000000000c4000000000000000e01000000000000"
      "330100000000000055000000000000009f000000000000000000000000000000"
      "0000000000000000000000000000000055000000000000000300000000000000"
      "c4000000000000000e010000000000003301000000000000";
  StatefulDesign design;
  design.run(0, 13);
  ckpt::Writer writer;
  design.model.save_state(writer);
  EXPECT_EQ(to_hex(writer.buffer()), golden);

  // The image loads into a fresh model and saves back unchanged, and both
  // models then run identically.
  StatefulDesign restored;
  ckpt::Reader reader(writer.buffer());
  ASSERT_TRUE(restored.model.load_state(reader));
  ckpt::Writer again;
  restored.model.save_state(again);
  EXPECT_EQ(to_hex(again.buffer()), golden);
  design.run(13, 18);
  restored.run(13, 18);
  ckpt::Writer left;
  ckpt::Writer right;
  design.model.save_state(left);
  restored.model.save_state(right);
  EXPECT_EQ(left.buffer(), right.buffer());
}

TEST(Signal, DriveChecksFormat) {
  Signal s("wire", kF16);
  EXPECT_THROW(s.drive(Fix::from_raw(FixFormat::signed_fix(8, 0), 1)),
               SimError);
  EXPECT_NO_THROW(s.drive(Fix::from_raw(kF16, 1)));
}

TEST(Signal, SingleDriverEnforced) {
  Model m("drivers");
  auto& c1 = m.add<Constant>("c1", Fix::from_int(kF16, 1));
  Signal& wire = *m.find_signal("c1.out");
  auto& c2 = m.add<Constant>("c2", Fix::from_int(kF16, 2));
  EXPECT_THROW(wire.set_driver(&c2), SimError);
  (void)c1;
}

}  // namespace
}  // namespace mbcosim::sysgen
