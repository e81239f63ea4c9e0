package engine

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
)

// Analyze exposes the ANALYZE pass to the package's external tests, which
// need internal/tpch (and tpch imports this package).
func Analyze(data *storage.TableData, schema *catalog.Schema) *catalog.TableStats {
	return analyze(data, schema)
}
