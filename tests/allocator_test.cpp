// Memory subsystem: the Allocator interface (arena size-class freelists,
// system pass-through, per-device ownership) and fused-run buffer donation.
// The donation contract under test: a buffer is donated only when provably
// exclusive — a value watched by the gradient tape, aliased by a second
// Tensor, or held by a pending TensorHandle is never overwritten — and a
// donated run's outputs are bitwise identical to the copying path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/tfe.h"
#include "kernels/fused_elementwise.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "support/logging.h"
#include "tensor/allocator.h"
#include "tensor/buffer.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

bool AllZero(const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

TEST(AllocatorTest, ArenaReusesFreedBlocksAndRezeroes) {
  ArenaAllocator arena("test");
  void* p1 = arena.AllocateRaw(1000);
  ASSERT_NE(p1, nullptr);
  EXPECT_TRUE(AllZero(p1, 1000));
  EXPECT_EQ(arena.stats().freelist_hits.load(), 0u);
  EXPECT_EQ(arena.stats().freelist_misses.load(), 1u);
  std::memset(p1, 0xAB, 1000);
  arena.DeallocateRaw(p1, 1000);
  EXPECT_GT(arena.retained_bytes(), 0u);

  // Same size class (1000 and 900 both round into the 1024 class): the
  // freed block comes back, scrubbed to zero.
  void* p2 = arena.AllocateRaw(900);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2, p1);
  EXPECT_EQ(arena.stats().freelist_hits.load(), 1u);
  EXPECT_TRUE(AllZero(p2, 900));
  arena.DeallocateRaw(p2, 900);
}

TEST(AllocatorTest, ArenaStatsTrackInUseAndHighWater) {
  ArenaAllocator arena("stats");
  void* a = arena.AllocateRaw(100);
  void* b = arena.AllocateRaw(5000);
  const int64_t peak = arena.stats().in_use_bytes.load();
  EXPECT_GT(peak, 0);
  EXPECT_EQ(arena.stats().high_water_bytes.load(), peak);
  EXPECT_EQ(arena.stats().bytes_requested.load(), 5100u);
  arena.DeallocateRaw(a, 100);
  arena.DeallocateRaw(b, 5000);
  EXPECT_EQ(arena.stats().in_use_bytes.load(), 0);
  // High water survives the frees.
  EXPECT_EQ(arena.stats().high_water_bytes.load(), peak);
}

TEST(AllocatorTest, ArenaRespectsRetainedBytesCap) {
  ArenaAllocator arena("cap", /*max_retained_bytes=*/2048);
  void* a = arena.AllocateRaw(1024);
  void* b = arena.AllocateRaw(1024);
  void* c = arena.AllocateRaw(1024);
  arena.DeallocateRaw(a, 1024);
  arena.DeallocateRaw(b, 1024);
  arena.DeallocateRaw(c, 1024);  // over the cap: released to the system
  EXPECT_LE(arena.retained_bytes(), 2048u);
}

TEST(AllocatorTest, ArenaIsThreadSafe) {
  ArenaAllocator arena("threads");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&arena, t] {
      for (int i = 0; i < 500; ++i) {
        size_t bytes = static_cast<size_t>(64 + 64 * ((i + t) % 8));
        void* p = arena.AllocateRaw(bytes);
        static_cast<char*>(p)[0] = 1;
        arena.DeallocateRaw(p, bytes);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(arena.stats().in_use_bytes.load(), 0);
  EXPECT_EQ(arena.stats().allocations.load(), 2000u);
  EXPECT_EQ(arena.stats().deallocations.load(), 2000u);
}

TEST(AllocatorTest, SystemAllocatorPassesThrough) {
  SystemAllocator system("test");
  void* p = system.AllocateRaw(256);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(AllZero(p, 256));
  system.DeallocateRaw(p, 256);
  EXPECT_EQ(system.stats().freelist_hits.load(), 0u);
  EXPECT_EQ(system.stats().freelist_misses.load(), 1u);
  EXPECT_EQ(system.stats().in_use_bytes.load(), 0);
}

TEST(AllocatorTest, KindSelectionHonorsOverrideAndEnv) {
  // TFE_ALLOCATOR accepts exactly "arena" and "system". Unset or empty
  // means arena; any other value warns once, naming the accepted values,
  // and falls back to arena.
  struct Case {
    const char* value;
    AllocatorKind kind;
    bool warns;
  };
  const Case cases[] = {
      {nullptr, AllocatorKind::kArena, false},
      {"", AllocatorKind::kArena, false},
      {"arena", AllocatorKind::kArena, false},
      {"system", AllocatorKind::kSystem, false},
      {"System", AllocatorKind::kArena, true},
      {"bogus", AllocatorKind::kArena, true},
  };
  const logging::Severity saved_severity = logging::min_severity();
  logging::set_min_severity(logging::Severity::kWarning);
  for (const Case& c : cases) {
    const std::string label = c.value != nullptr ? c.value : "(unset)";
    testing::internal::CaptureStderr();
    EXPECT_EQ(ParseAllocatorKind(c.value), c.kind) << label;
    const std::string err = testing::internal::GetCapturedStderr();
    if (c.warns) {
      EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
      EXPECT_NE(err.find("[tfe W "), std::string::npos) << err;
      EXPECT_NE(err.find(label), std::string::npos) << err;
      EXPECT_NE(err.find("arena|system"), std::string::npos) << err;
    } else {
      EXPECT_EQ(err, "") << label;
    }
  }
  logging::set_min_severity(saved_severity);

  // Options::allocator pins a context's devices whatever TFE_ALLOCATOR says,
  // and defaults to the process-wide kind.
  EXPECT_EQ(EagerContext::Options().allocator, DefaultAllocatorKind());
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kSystem});
  EXPECT_STREQ(EagerContext::Global()->HostCpu()->allocator()->kind(),
               "system");
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EXPECT_STREQ(EagerContext::Global()->HostCpu()->allocator()->kind(),
               "arena");
  EagerContext::ResetGlobal(EagerContext::Options());
}

TEST(AllocatorTest, EachDeviceOwnsAnAccountingAllocator) {
  EagerContext::ResetGlobal(EagerContext::Options());
  Device* cpu = EagerContext::Global()->HostCpu();
  ASSERT_NE(cpu->allocator(), nullptr);
  EXPECT_EQ(cpu->allocator()->name(), cpu->name());

  const uint64_t before = cpu->allocator()->stats().bytes_requested.load();
  Tensor t = Tensor::Empty(DType::kFloat32, Shape({64, 64}), cpu);
  const uint64_t after = cpu->allocator()->stats().bytes_requested.load();
  EXPECT_GE(after - before, 64u * 64u * sizeof(float));

  // Device-less tensors route through the process allocator instead.
  Tensor detached = Tensor::Empty(DType::kFloat32, Shape({8}), nullptr);
  EXPECT_EQ(detached.buffer()->allocator().get(), ProcessAllocator().get());
}

TEST(AllocatorTest, BufferKeepsItsAllocatorAlive) {
  std::shared_ptr<Buffer> buffer;
  {
    auto arena = std::make_shared<ArenaAllocator>("scoped");
    buffer = Buffer::Allocate(512, arena);
  }  // the test's only direct ref dies; the buffer keeps the arena alive
  std::memset(buffer->data(), 0x5A, buffer->bytes());
  EXPECT_EQ(static_cast<unsigned char*>(buffer->data())[511], 0x5A);
  buffer.reset();  // returns storage through (and then releases) the arena
}

// ---- Buffer donation -------------------------------------------------------

uint64_t Donations() {
  return profiler::Metrics().GetCounter("allocator.donations")->value();
}

// Fusion on the drain needs queue depth; a slow op at the head of the
// in-order queue keeps the drain busy while the producer enqueues the chain
// (same trick as fusion_test.cpp).
void BlockQueueHead() {
  Tensor a = ops::random_normal({192, 192}, 0, 1, /*seed=*/97);
  Tensor b = ops::random_normal({192, 192}, 0, 1, /*seed=*/98);
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  (void)ops::matmul(a, b);
}

// Unary chain: every fused run reads exactly one external operand (the
// previous run's tip), the donation candidate.
Tensor UnaryChain(const Tensor& x, int length) {
  Tensor h = x;
  for (int i = 0; i < length; ++i) {
    h = (i % 2 == 0) ? ops::abs(h) : ops::neg(h);
  }
  return h;
}

// Staged runs allocate every intermediate through the device arena. Once
// warm, the size-class freelists serve each step of a staged residual tower
// without a single new system allocation, and the tower computes the same
// bits as the same layers run op by op.
TEST(AllocatorTest, StagedTowerSteadyStateAllocatesNoNewSystemMemory) {
  // Pin the arena so a TFE_ALLOCATOR=system environment (the tier-2
  // sanitizer sweep) cannot swap out the allocator under test.
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EagerContext* ctx = EagerContext::Global();
  auto tower = [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
    Tensor h = args[0];
    for (int layer = 0; layer < 4; ++layer) {
      h = ops::add(ops::relu(ops::matmul(h, args[1])), h);  // residual join
    }
    return {h};
  };
  Tensor x = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/21),
                      ops::scalar<float>(0.05f));
  Tensor w = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/22),
                      ops::scalar<float>(0.05f));
  Function step = function(tower, "steady_tower");

  constexpr int kWarmup = 3;
  constexpr int kSteps = 8;
  Tensor staged = x;
  for (int i = 0; i < kWarmup; ++i) staged = step({staged, w})[0];
  ASSERT_TRUE(ctx->Sync().ok());
  const AllocatorStats& host = ctx->HostCpu()->allocator()->stats();
  const uint64_t misses_before = host.freelist_misses.load();
  for (int i = 0; i < kSteps; ++i) staged = step({staged, w})[0];
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(host.freelist_misses.load(), misses_before);

  Tensor eager = x;
  for (int i = 0; i < kWarmup + kSteps; ++i) eager = tower({eager, w})[0];
  std::vector<float> staged_values = ToVector<float>(staged);
  std::vector<float> eager_values = ToVector<float>(eager);
  ASSERT_EQ(staged_values.size(), eager_values.size());
  EXPECT_EQ(std::memcmp(staged_values.data(), eager_values.data(),
                        staged_values.size() * sizeof(float)),
            0);
  EagerContext::ResetGlobal(EagerContext::Options());
}

class DonationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EagerContext::Options options;
    options.async = true;
    EagerContext::ResetGlobal(options);
  }
  void TearDown() override {
    EagerContext::ResetGlobal(EagerContext::Options());
  }
};

TEST_F(DonationTest, FusedRunsDonateAndMatchTheCopyingPathBitwise) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({64, 64}, 0, 1, /*seed=*/5);

  const uint64_t donations_before = Donations();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor donated = UnaryChain(x, 160);  // > kMaxFusedRun: several runs form
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(Donations(), donations_before)
      << "no fused run donated a uniquely-owned input buffer";

  ctx->set_buffer_donation(false);
  const uint64_t donations_off = Donations();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor copied = UnaryChain(x, 160);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(Donations(), donations_off) << "donation fired while disabled";

  EXPECT_EQ(ToVector<float>(donated), ToVector<float>(copied));
}

TEST_F(DonationTest, TapeWatchedBuffersAreNeverDonated) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({32, 32}, 0, 1, /*seed=*/9);
  ASSERT_TRUE(ctx->Sync().ok());

  const uint64_t donations_before = Donations();
  GradientTape tape;
  tape.watch(x);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  // Every intermediate is recorded on the tape (TapeEntry holds the whole
  // Tensor), so none is exclusively owned and none may be donated.
  Tensor h = x;
  for (int i = 0; i < 96; ++i) h = ops::tanh(h);
  Tensor loss = ops::reduce_sum(h);
  EXPECT_EQ(Donations(), donations_before)
      << "a tape-watched buffer was donated";

  auto grads = tape.gradient(loss, {x});
  ASSERT_TRUE(grads.ok());
  ASSERT_TRUE((*grads)[0].Materialize().ok());
}

TEST_F(DonationTest, AliasedTensorsSurviveDonatingRuns) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({48, 48}, 0, 1, /*seed=*/13);

  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor mid = UnaryChain(x, 100);
  // `kept` aliases the chain's tip while it is still a pending handle; both
  // the alias and the held handle must block donation of this buffer even
  // though 100 more ops consume it.
  Tensor kept = mid;
  Tensor out = UnaryChain(mid, 100);
  ASSERT_TRUE(ctx->Sync().ok());
  std::vector<float> kept_values = ToVector<float>(kept);
  std::vector<float> out_values = ToVector<float>(out);

  // Recompute without fusion (no runs, no donation) as ground truth.
  ctx->set_fuse_elementwise(false);
  Tensor mid_ref = UnaryChain(x, 100);
  Tensor out_ref = UnaryChain(mid_ref, 100);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(kept_values, ToVector<float>(mid_ref))
      << "an aliased buffer was overwritten by a donating run";
  EXPECT_EQ(out_values, ToVector<float>(out_ref));
}

TEST_F(DonationTest, CompilerAssignsDonationOnlyWhenProvablySafe) {
  using kernels::CompileFusedRun;
  using kernels::FusedRunOp;
  using kernels::FusedRunOperand;

  // Unary chain over one donatable operand: the output may reuse it.
  std::vector<FusedRunOp> chain(2);
  chain[0] = {"Abs", DType::kFloat32, Shape({64}), {{-1, 0}}, {}, {}, false};
  chain[1] = {"Neg", DType::kFloat32, Shape({64}), {{0, -1}}, {}, {}, true};
  std::vector<FusedRunOperand> donatable = {
      {DType::kFloat32, Shape({64}), /*may_donate=*/true}};
  auto compiled = CompileFusedRun(chain, donatable, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->donations.size(), 1u);
  EXPECT_EQ(compiled->donations[0], 0);

  // Same run without the may_donate bit: no donation.
  std::vector<FusedRunOperand> held = {
      {DType::kFloat32, Shape({64}), /*may_donate=*/false}};
  compiled = CompileFusedRun(chain, held, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->donations[0], -1);

  // A transposed (strided) read of the operand crosses block boundaries:
  // overwriting it in place would clobber rows a later block still reads.
  std::vector<FusedRunOp> transposed(2);
  transposed[0] = {"Transpose", DType::kFloat32, Shape({8, 8}),
                   {{-1, 0}}, {1, 0}, {}, false};
  transposed[1] = {"Abs", DType::kFloat32, Shape({8, 8}),
                   {{0, -1}}, {}, {}, true};
  std::vector<FusedRunOperand> matrix = {
      {DType::kFloat32, Shape({8, 8}), /*may_donate=*/true}};
  compiled = CompileFusedRun(transposed, matrix, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());
  for (int donor : compiled->donations) EXPECT_EQ(donor, -1);

  // A materialized layout view of the operand publishes the operand's slot
  // as an output store, which reads the buffer *after* in-block stores; the
  // operand must not be donated to the other output.
  std::vector<FusedRunOp> viewed(2);
  viewed[0] = {"Reshape", DType::kFloat32, Shape({64}),
               {{-1, 0}}, {}, {}, true};
  viewed[1] = {"Abs", DType::kFloat32, Shape({64}), {{-1, 0}}, {}, {}, true};
  compiled = CompileFusedRun(viewed, donatable, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());
  for (int donor : compiled->donations) EXPECT_EQ(donor, -1);
}

TEST_F(DonationTest, DonatedKernelOutputIsInPlaceAndBitwiseIdentical) {
  using kernels::CompileFusedRun;
  using kernels::FusedRunOp;
  using kernels::FusedRunOperand;
  EagerContext* ctx = EagerContext::Global();
  Device* cpu = ctx->HostCpu();

  std::vector<FusedRunOp> run(2);
  run[0] = {"Abs", DType::kFloat32, Shape({256}), {{-1, 0}}, {}, {}, false};
  run[1] = {"Neg", DType::kFloat32, Shape({256}), {{0, -1}}, {}, {}, true};
  std::vector<FusedRunOperand> operands = {
      {DType::kFloat32, Shape({256}), /*may_donate=*/true}};
  auto compiled = CompileFusedRun(run, operands, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->donations[0], 0);

  auto make_input = [&] {
    Tensor t = Tensor::Empty(DType::kFloat32, Shape({256}), cpu);
    float* data = t.mutable_data<float>();
    for (int i = 0; i < 256; ++i) data[i] = (i % 2 == 0 ? 1.f : -1.f) * i;
    return t;
  };

  AttrMap attrs;
  attrs.emplace("program", AttrValue(compiled->program.Encode()));
  attrs.emplace("dtype", AttrValue(DType::kFloat32));

  Tensor plain_in = make_input();
  auto plain = ctx->ExecuteKernel("FusedElementwise", {plain_in}, attrs, cpu,
                                  /*compiled=*/false, /*start_ns=*/0);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->outputs.size(), 1u);
  EXPECT_NE(plain->outputs[0].buffer().get(), plain_in.buffer().get());

  attrs.emplace("donate", AttrValue(std::vector<int64_t>{0}));
  Tensor donated_in = make_input();
  auto donated = ctx->ExecuteKernel("FusedElementwise", {donated_in}, attrs,
                                    cpu, /*compiled=*/false, /*start_ns=*/0);
  ASSERT_TRUE(donated.ok());
  ASSERT_EQ(donated->outputs.size(), 1u);
  // In place: the output IS the input's storage...
  EXPECT_EQ(donated->outputs[0].buffer().get(), donated_in.buffer().get());
  // ...and the values match the copying path bit for bit.
  EXPECT_EQ(ToVector<float>(donated->outputs[0]),
            ToVector<float>(plain->outputs[0]));
}

TEST_F(DonationTest, KernelRejectsUnsafeDonationAttr) {
  using kernels::CompileFusedRun;
  using kernels::FusedRunOp;
  using kernels::FusedRunOperand;
  EagerContext* ctx = EagerContext::Global();
  Device* cpu = ctx->HostCpu();

  // Transposed read: the compiler refuses to donate, and a forged "donate"
  // attr naming the operand anyway must be rejected, not honored.
  std::vector<FusedRunOp> run(2);
  run[0] = {"Transpose", DType::kFloat32, Shape({16, 16}),
            {{-1, 0}}, {1, 0}, {}, false};
  run[1] = {"Abs", DType::kFloat32, Shape({16, 16}), {{0, -1}}, {}, {}, true};
  std::vector<FusedRunOperand> operands = {
      {DType::kFloat32, Shape({16, 16}), /*may_donate=*/true}};
  auto compiled = CompileFusedRun(run, operands, DType::kFloat32);
  ASSERT_TRUE(compiled.ok());

  AttrMap attrs;
  attrs.emplace("program", AttrValue(compiled->program.Encode()));
  attrs.emplace("dtype", AttrValue(DType::kFloat32));
  attrs.emplace("donate", AttrValue(std::vector<int64_t>{0}));
  Tensor input = Tensor::Empty(DType::kFloat32, Shape({16, 16}), cpu);
  auto result = ctx->ExecuteKernel("FusedElementwise", {input}, attrs, cpu,
                                   /*compiled=*/false, /*start_ns=*/0);
  EXPECT_FALSE(result.ok());
}

TEST_F(DonationTest, OpAtATimeUnaryOpsDonate) {
  // With fusion off the drain executes ops one at a time; a unary op whose
  // input buffer is uniquely owned (producer handle dropped, no aliases, no
  // tape) writes its output in place under the same ownership proof the
  // fused path uses.
  EagerContext* ctx = EagerContext::Global();
  ctx->set_fuse_elementwise(false);
  Tensor x = ops::random_normal({64, 64}, 0, 1, /*seed=*/33);
  ASSERT_TRUE(ctx->Sync().ok());

  const uint64_t donations_before = Donations();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor donated = UnaryChain(x, 64);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(Donations(), donations_before)
      << "no op-at-a-time unary op donated its input buffer";

  ctx->set_buffer_donation(false);
  Tensor copied = UnaryChain(x, 64);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(donated), ToVector<float>(copied));
}

// Binary chain alternating which side the pending (uniquely-owned) operand
// sits on, so both donate=0 and donate=1 assignments are exercised. `y` is
// held by the caller throughout and must never be overwritten.
Tensor BinaryChain(const Tensor& x, const Tensor& y, int length) {
  Tensor h = ops::abs(x);
  for (int i = 0; i < length; ++i) {
    switch (i % 4) {
      case 0: h = ops::add(h, y); break;
      case 1: h = ops::mul(y, h); break;
      case 2: h = ops::sub(h, y); break;
      default: h = ops::add(y, h); break;
    }
  }
  return h;
}

TEST_F(DonationTest, OpAtATimeBinaryOpsDonateEitherExactShapeOperand) {
  // Binary elementwise ops donate whichever operand passes the ownership
  // proof and matches the output shape exactly — left or right. The
  // caller-held operand fails the use-count proof and survives; the donated
  // path stays bitwise identical to the copying path.
  EagerContext* ctx = EagerContext::Global();
  ctx->set_fuse_elementwise(false);
  Tensor x = ops::random_normal({64, 64}, 0, 1, /*seed=*/43);
  Tensor y = ops::random_normal({64, 64}, 0, 1, /*seed=*/44);
  ASSERT_TRUE(ctx->Sync().ok());
  std::vector<float> y_bits = ToVector<float>(y);

  const uint64_t donations_before = Donations();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor donated = BinaryChain(x, y, 64);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(Donations(), donations_before)
      << "no op-at-a-time binary op donated its exclusive operand";
  EXPECT_EQ(ToVector<float>(y), y_bits)
      << "the caller-held operand was overwritten in place";

  ctx->set_buffer_donation(false);
  Tensor copied = BinaryChain(x, y, 64);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(donated), ToVector<float>(copied));
}

TEST_F(DonationTest, BroadcastOperandsAreNeverDonated) {
  // A broadcasting operand is smaller than the output; writing the result
  // into it would run off the end of the buffer. Here the only exclusively
  // owned value is the [1, 64] row — shape-mismatched with the [64, 64]
  // output — and the full-size operand is caller-held, so nothing donates.
  EagerContext* ctx = EagerContext::Global();
  ctx->set_fuse_elementwise(false);
  Tensor row = ops::random_normal({1, 64}, 0, 1, /*seed=*/45);
  Tensor big = ops::random_normal({64, 64}, 0, 1, /*seed=*/46);
  ASSERT_TRUE(ctx->Sync().ok());

  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  const uint64_t donations_before = Donations();
  Tensor out = ops::add(ops::neg(row), big);  // neg(row): unique but small
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(Donations(), donations_before)
      << "a broadcasting operand was donated";

  ctx->set_buffer_donation(false);
  Tensor reference = ops::add(ops::neg(row), big);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(out), ToVector<float>(reference));
}

TEST_F(DonationTest, EscapingMultiConsumerValueBlocksOpAtATimeDonation) {
  // A value held by the test and consumed by two later ops is never
  // uniquely owned: neither consumer may overwrite it, and the held handle
  // must still read the original bits after both consumers ran.
  EagerContext* ctx = EagerContext::Global();
  ctx->set_fuse_elementwise(false);
  Tensor x = ops::random_normal({32, 32}, 0, 1, /*seed=*/37);
  ASSERT_TRUE(ctx->Sync().ok());

  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor mid = ops::abs(x);
  Tensor kept = mid;  // escapes: a second handle to the same value
  const uint64_t donations_before = Donations();
  Tensor a = ops::neg(mid);
  Tensor b = ops::abs(mid);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(Donations(), donations_before)
      << "a consumer donated a multi-consumer value that escapes the queue";

  // Ground truth without donation anywhere.
  ctx->set_buffer_donation(false);
  Tensor mid_ref = ops::abs(x);
  Tensor a_ref = ops::neg(mid_ref);
  Tensor b_ref = ops::abs(mid_ref);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(kept), ToVector<float>(mid_ref))
      << "the escaping value was overwritten in place";
  EXPECT_EQ(ToVector<float>(a), ToVector<float>(a_ref));
  EXPECT_EQ(ToVector<float>(b), ToVector<float>(b_ref));
}

TEST_F(DonationTest, ArenaAndSystemAllocatorsAgreeBitwise) {
  auto compute = [](std::vector<float>* out_values) {
    ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
    Tensor x = ops::random_normal({64, 64}, 0, 1, /*seed=*/21);
    Tensor out = ops::reduce_sum(UnaryChain(x, 128));
    ASSERT_TRUE(EagerContext::Global()->Sync().ok());
    *out_values = ToVector<float>(out);
  };
  // Copying system-allocator baseline...
  EagerContext::ResetGlobal(
      {.async = true, .allocator = AllocatorKind::kSystem});
  EagerContext::Global()->set_buffer_donation(false);
  std::vector<float> system_values;
  compute(&system_values);

  // ...vs recycled arena buffers with in-place donation. Same bits.
  EagerContext::ResetGlobal({.async = true, .allocator = AllocatorKind::kArena});
  std::vector<float> arena_values;
  compute(&arena_values);

  ASSERT_EQ(system_values.size(), arena_values.size());
  for (size_t i = 0; i < arena_values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&system_values[i], &arena_values[i], sizeof(float)),
              0)
        << "element " << i;
  }
}

}  // namespace
}  // namespace tfe
