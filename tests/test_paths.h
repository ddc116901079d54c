// Per-test scratch paths: tests that touch the filesystem name their files
// and directories after the running test, so parallel ctest instances
// (including parameterized instances of one suite) never share a path.

#ifndef BBF_TESTS_TEST_PATHS_H_
#define BBF_TESTS_TEST_PATHS_H_

#include <algorithm>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace bbf {

/// A path under the test temp directory unique to the running test:
/// "bbf_<suite>.<test>_<name>", with the '/' of parameterized names
/// replaced by '_'. Nothing is created or removed.
inline std::string TestScopedPath(std::string_view name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string id = std::string(info->test_suite_name()) + "." +
                   info->name() + "_" + std::string(name);
  std::replace(id.begin(), id.end(), '/', '_');
  return ::testing::TempDir() + "bbf_" + id;
}

}  // namespace bbf

#endif  // BBF_TESTS_TEST_PATHS_H_
