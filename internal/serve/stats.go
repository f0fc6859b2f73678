package serve

import (
	"net/http"

	"gps/internal/engine"
	"gps/internal/fault"
)

// statsDoc is the GET /v1/stats document, schema version 3: every sample
// /metrics serves, as a JSON number under its exposition name, plus the
// facts that are not numbers. The conditional fields keep the presence
// rules of earlier versions.
type statsDoc struct {
	SchemaVersion int                `json:"schema_version"`
	Metrics       map[string]float64 `json:"metrics"`
	// Streams lists every live stream, default first: its GET /v1/streams
	// summary plus its shards' supervisor health, whose panic messages
	// have no metric.
	Streams []streamEntry `json:"streams"`

	// Present when the server booted from a checkpoint.
	RestoredFrom     string  `json:"restored_from,omitempty"`
	RestoredPosition *uint64 `json:"restored_position,omitempty"`
	// Present while the last checkpoint attempt has failed.
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// Present when gps-serve runs a pprof listener.
	PprofAddr string `json:"pprof_addr,omitempty"`
	// Present while fault-injection rules are armed.
	FaultPoints []fault.PointStatus `json:"fault_points,omitempty"`
}

type streamEntry struct {
	streamSummary
	ShardHealth []engine.ShardHealth `json:"shard_health"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	doc := statsDoc{SchemaVersion: 3, Metrics: s.reg.Values(), FaultPoints: fault.Status()}
	for _, t := range s.liveTenants() {
		health, _ := t.eng.Health()
		doc.Streams = append(doc.Streams, streamEntry{summarize(t), health})
	}
	if s.restoredFrom != "" {
		pos := s.def.restoredPosition
		doc.RestoredFrom, doc.RestoredPosition = s.restoredFrom, &pos
	}
	doc.LastCheckpointError, _ = s.lastCheckpointErr.Load().(string)
	doc.PprofAddr, _ = s.pprofAddr.Load().(string)
	writeJSON(w, http.StatusOK, doc)
}

// SetPprofAddr records the bound address of the auxiliary pprof/metrics
// listener so /v1/stats can report it (gps-serve calls it after binding).
func (s *Server) SetPprofAddr(addr string) { s.pprofAddr.Store(addr) }
