// Unit tests for dtype, Shape, Buffer, Tensor, tensor_util.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_util.h"

namespace tfe {
namespace {

TEST(DTypeTest, SizesAndNames) {
  EXPECT_EQ(DTypeSize(DType::kFloat32), 4u);
  EXPECT_EQ(DTypeSize(DType::kFloat64), 8u);
  EXPECT_EQ(DTypeSize(DType::kInt32), 4u);
  EXPECT_EQ(DTypeSize(DType::kInt64), 8u);
  EXPECT_EQ(DTypeSize(DType::kBool), 1u);
  EXPECT_STREQ(DTypeName(DType::kFloat32), "float32");
  EXPECT_EQ(DTypeFromName("int64"), DType::kInt64);
  EXPECT_EQ(DTypeFromName("garbage"), DType::kInvalid);
}

TEST(DTypeTest, Predicates) {
  EXPECT_TRUE(IsFloating(DType::kFloat32));
  EXPECT_TRUE(IsFloating(DType::kFloat64));
  EXPECT_FALSE(IsFloating(DType::kInt32));
  EXPECT_TRUE(IsInteger(DType::kInt64));
  EXPECT_FALSE(IsInteger(DType::kBool));
}

TEST(ShapeTest, Basics) {
  Shape scalar;
  EXPECT_TRUE(scalar.IsScalar());
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_EQ(scalar.num_elements(), 1);

  Shape matrix({2, 3});
  EXPECT_EQ(matrix.rank(), 2);
  EXPECT_EQ(matrix.num_elements(), 6);
  EXPECT_EQ(matrix.ToString(), "[2,3]");
}

TEST(ShapeTest, PartialShapes) {
  Shape partial({kUnknownDim, 3});
  EXPECT_FALSE(partial.IsFullyDefined());
  EXPECT_EQ(partial.ToString(), "[?,3]");
  EXPECT_TRUE(partial.IsCompatibleWith(Shape({5, 3})));
  EXPECT_FALSE(partial.IsCompatibleWith(Shape({5, 4})));
  EXPECT_FALSE(partial.IsCompatibleWith(Shape({5})));
}

TEST(ShapeTest, Merge) {
  auto merged = Shape::Merge(Shape({kUnknownDim, 3}), Shape({5, kUnknownDim}));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, Shape({5, 3}));
  EXPECT_FALSE(Shape::Merge(Shape({2}), Shape({3})).ok());
}

TEST(ShapeTest, Broadcasting) {
  auto result = BroadcastShapes(Shape({4, 1}), Shape({3}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, Shape({4, 3}));

  result = BroadcastShapes(Shape(), Shape({2, 2}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, Shape({2, 2}));

  EXPECT_FALSE(BroadcastShapes(Shape({2}), Shape({3})).ok());
}

TEST(BufferTest, ZeroInitializedAndAligned) {
  auto buffer = Buffer::Allocate(100);
  EXPECT_EQ(buffer->bytes(), 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer->data()) % 64, 0u);
  const char* data = static_cast<const char*>(buffer->data());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(data[i], 0);
}

TEST(TensorTest, ConcreteRoundTrip) {
  Tensor t = tensor_util::FromVector<float>({1, 2, 3, 4}, Shape({2, 2}));
  EXPECT_TRUE(t.defined());
  EXPECT_FALSE(t.is_symbolic());
  EXPECT_FALSE(t.is_resource());
  EXPECT_EQ(t.dtype(), DType::kFloat32);
  EXPECT_EQ(t.num_elements(), 4);
  EXPECT_EQ(t.data<float>()[3], 4.0f);
}

TEST(TensorTest, UniqueIds) {
  Tensor a = tensor_util::Scalar<float>(1);
  Tensor b = tensor_util::Scalar<float>(1);
  EXPECT_NE(a.id(), b.id());
}

TEST(TensorTest, ScalarAccessor) {
  EXPECT_EQ(tensor_util::Scalar<int32_t>(7).scalar<int32_t>(), 7);
}

TEST(TensorTest, OpaqueRefusesDataAccess) {
  Tensor t = Tensor::Opaque(DType::kFloat32, Shape({8}), nullptr);
  EXPECT_TRUE(t.is_opaque());
  EXPECT_EQ(t.num_elements(), 8);
  EXPECT_DEATH({ (void)t.raw_data(); }, "opaque");
}

TEST(TensorTest, OpaquePlaceholdersShareOneEmptyBuffer) {
  // Placeholders hold no values, so none allocates: all share one empty
  // buffer, whichever thread makes or drops them.
  const Tensor first = Tensor::Opaque(DType::kFloat32, Shape({8}), nullptr);
  EXPECT_EQ(first.buffer()->bytes(), 0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&first] {
      for (int i = 0; i < 256; ++i) {
        const Tensor t = Tensor::Opaque(DType::kInt32, Shape({2, 3}), nullptr);
        EXPECT_EQ(t.buffer().get(), first.buffer().get());
        EXPECT_NE(t.id(), first.id());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(TensorUtilTest, FullZerosOnes) {
  Tensor full = tensor_util::Full(DType::kFloat64, Shape({3}), 2.5);
  EXPECT_EQ(full.data<double>()[2], 2.5);
  Tensor ones = tensor_util::Ones(DType::kInt32, Shape({2}));
  EXPECT_EQ(ones.data<int32_t>()[1], 1);
  Tensor zeros = tensor_util::Zeros(DType::kFloat32, Shape({2}));
  EXPECT_EQ(zeros.data<float>()[0], 0.0f);
}

TEST(TensorUtilTest, DeepCopyIsIndependent) {
  Tensor a = tensor_util::FromVector<float>({1, 2}, Shape({2}));
  Tensor b = tensor_util::DeepCopy(a);
  b.mutable_data<float>()[0] = 9;
  EXPECT_EQ(a.data<float>()[0], 1.0f);
  EXPECT_EQ(b.data<float>()[0], 9.0f);
}

TEST(TensorUtilTest, AllClose) {
  Tensor a = tensor_util::FromVector<float>({1.0f, 2.0f}, Shape({2}));
  Tensor b = tensor_util::FromVector<float>({1.0f + 1e-7f, 2.0f}, Shape({2}));
  EXPECT_TRUE(tensor_util::AllClose(a, b));
  Tensor c = tensor_util::FromVector<float>({1.5f, 2.0f}, Shape({2}));
  EXPECT_FALSE(tensor_util::AllClose(a, c));
  // Shape mismatch.
  Tensor d = tensor_util::FromVector<float>({1.0f, 2.0f}, Shape({2, 1}));
  EXPECT_FALSE(tensor_util::AllClose(a, d));
  // Integer exact compare.
  Tensor e = tensor_util::FromVector<int32_t>({1, 2}, Shape({2}));
  Tensor f = tensor_util::FromVector<int32_t>({1, 2}, Shape({2}));
  EXPECT_TRUE(tensor_util::AllClose(e, f));
}

TEST(TensorUtilTest, ElementAccessors) {
  Tensor t = tensor_util::FromVector<int64_t>({5, 6}, Shape({2}));
  EXPECT_EQ(tensor_util::ElementAsDouble(t, 1), 6.0);
  tensor_util::SetElementFromDouble(t, 0, 9.0);
  EXPECT_EQ(t.data<int64_t>()[0], 9);
}

TEST(TensorUtilTest, ToStringTruncates) {
  Tensor t = tensor_util::Full(DType::kFloat32, Shape({100}), 1.0);
  std::string text = tensor_util::ToString(t, 4);
  EXPECT_NE(text.find("..."), std::string::npos);
  EXPECT_NE(text.find("[100]"), std::string::npos);
}

}  // namespace
}  // namespace tfe
