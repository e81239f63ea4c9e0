package wire

import (
	"encoding/json"

	"energydb/internal/obs"
)

// StatsSnapshot is the JSON payload of a StatsReply: the server's
// observability state at one instant — the full metrics registry and the
// slow/hot query boards. Every number lives in the registry (energy totals
// and their Eq. 1 split, workers, sessions, statements, transactions), so
// STATS and /metrics cannot disagree. It is what dbshell renders for \stats
// and what Client.Stats returns.
type StatsSnapshot struct {
	// Banner identifies the server build.
	Banner string `json:"banner"`
	// Engines lists the engine/setting/class triples currently loaded.
	Engines []string `json:"engines,omitempty"`

	// Metrics is the full registry snapshot — the same series /metrics
	// exposes in Prometheus text format.
	Metrics obs.Snapshot `json:"metrics"`

	// Slowest and Hottest are the query-log boards: top statements by
	// wall time and by E_active, each with its winning plan summary.
	Slowest []obs.QueryLogEntry `json:"slowest,omitempty"`
	Hottest []obs.QueryLogEntry `json:"hottest,omitempty"`
}

// Reply encodes the snapshot into its wire frame.
func (s *StatsSnapshot) Reply() (*StatsReply, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return &StatsReply{JSON: string(data)}, nil
}
