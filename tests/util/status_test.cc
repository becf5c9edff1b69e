#include "util/status.h"

#include <gtest/gtest.h>

#include <string>

#include "../test_support.h"

namespace monarch {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(StatusCode::kOk, status.code());
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ("OK", status.ToString());
}

TEST(StatusTest, FactoryHelpersCarryCodeAndMessage) {
  EXPECT_EQ(StatusCode::kNotFound, NotFoundError("x").code());
  EXPECT_EQ(StatusCode::kAlreadyExists, AlreadyExistsError("x").code());
  EXPECT_EQ(StatusCode::kOutOfRange, OutOfRangeError("x").code());
  EXPECT_EQ(StatusCode::kResourceExhausted,
            ResourceExhaustedError("x").code());
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            FailedPreconditionError("x").code());
  EXPECT_EQ(StatusCode::kUnavailable, UnavailableError("x").code());
  EXPECT_EQ(StatusCode::kDataLoss, DataLossError("x").code());
  EXPECT_EQ(StatusCode::kInvalidArgument, InvalidArgumentError("x").code());
  EXPECT_EQ(StatusCode::kInternal, InternalError("x").code());

  const Status status = NotFoundError("dataset/file-004");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ("dataset/file-004", status.message());
  EXPECT_EQ("NOT_FOUND: dataset/file-004", status.ToString());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(NotFoundError("a"), NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
  EXPECT_EQ(Status::Ok(), Status());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ("OK", StatusCodeName(StatusCode::kOk));
  EXPECT_EQ("DATA_LOSS", StatusCodeName(StatusCode::kDataLoss));
  EXPECT_EQ("RESOURCE_EXHAUSTED",
            StatusCodeName(StatusCode::kResourceExhausted));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(42, result.value());
  EXPECT_EQ(42, *result);
  EXPECT_TRUE(result.status().ok());
  EXPECT_EQ(42, result.value_or(0));
}

TEST(ResultTest, HoldsStatus) {
  Result<int> result = NotFoundError("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kNotFound, result.status().code());
  EXPECT_EQ(7, result.value_or(7));
}

TEST(ResultTest, StatusIsBorrowedFromLvaluesAndMovedFromRvalues) {
  Result<int> failed = NotFoundError(std::string(64, 'x'));
  // An lvalue lends its error: no copy of the message per check.
  EXPECT_EQ(&failed.status(), &failed.status());
  EXPECT_EQ(failed.status().message().data(),
            failed.status().message().data());
  // An rvalue hands it over.
  const char* message = failed.status().message().data();
  const Status taken = std::move(failed).status();
  EXPECT_EQ(StatusCode::kNotFound, taken.code());
  EXPECT_EQ(message, taken.message().data());

  Result<int> held(1);
  EXPECT_TRUE(held.status().ok());
  EXPECT_TRUE(std::move(held).status().ok());
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(9));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(9, *owned);
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> result(std::string("hello"));
  EXPECT_EQ(5u, result->size());
}

Status FailIfNegative(int v) {
  if (v < 0) return InvalidArgumentError("negative");
  return Status::Ok();
}

Result<int> DoubleIfPositive(int v) {
  MONARCH_RETURN_IF_ERROR(FailIfNegative(v));
  return v * 2;
}

Result<int> ChainThroughMacro(int v) {
  MONARCH_ASSIGN_OR_RETURN(const int doubled, DoubleIfPositive(v));
  return doubled + 1;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_OK(DoubleIfPositive(2));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, DoubleIfPositive(-1));
}

TEST(StatusMacrosTest, AssignOrReturnBindsAndPropagates) {
  auto ok = ChainThroughMacro(5);
  ASSERT_OK(ok);
  EXPECT_EQ(11, ok.value());
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, ChainThroughMacro(-5));
}

}  // namespace
}  // namespace monarch
