package expt

import (
	"encoding/json"
	"io"
)

// JSON output for the evaluation, so results can be consumed by plotting
// scripts without scraping the text tables. The manifest marshals the
// exported experiment types directly; this file only adds the envelope
// that names it and the schema version.

// jsonEnvelope wraps a result with identification.
type jsonEnvelope struct {
	Experiment string `json:"experiment"`
	Schema     int    `json:"schema"`
	Data       any    `json:"data"`
}

const schemaVersion = 1

// ManifestEntry pairs one experiment's name with its result data inside
// the single-file manifest cmd/reproduce -json writes.
type ManifestEntry struct {
	// Experiment names the figure or table ("figure8", "table1", ...).
	Experiment string `json:"experiment"`
	// Data is the experiment's typed result, marshalled directly.
	Data any `json:"data"`
}

// WriteManifestJSON emits one manifest holding every entry's result.
// The envelope and the result types' field names are stable: plotting
// scripts may rely on, say, a metrics entry's
// data.machine.threads[].occupancy_hist.
func WriteManifestJSON(w io.Writer, entries []ManifestEntry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonEnvelope{Experiment: "manifest", Schema: schemaVersion, Data: entries})
}
