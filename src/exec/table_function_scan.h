// Table-function scan executor: materializes an engine-introspection
// snapshot (relopt_metrics() etc.) at Init and streams the rows out.
#pragma once

#include <string>

#include "exec/executor.h"

namespace relopt {

/// \brief Leaf executor for PhysTableFunctionScan. The snapshot is taken
/// once per Init() from the context's introspection sources, so one stream
/// sees one consistent view; a restart (nested-loop rescan) re-snapshots.
class TableFunctionScanExecutor : public Executor {
 public:
  TableFunctionScanExecutor(ExecContext* ctx, Schema schema, std::string function_name)
      : Executor(ctx, std::move(schema)), function_name_(std::move(function_name)) {}

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  std::string function_name_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

}  // namespace relopt
