package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"ksp/internal/obs"
)

// Report is one printable experiment table.
type Report struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes carry the paper-shape expectation the numbers should match.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Print renders the report. The first write error wins; tabwriter
// reports it at Flush.
func (r *Report) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n=== %s — %s ===\n", r.ID, r.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	sep := make([]string, len(r.Header))
	for i, h := range r.Header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Cell renders a float compactly.
func Cell(v float64) string { return fmt.Sprintf("%.2f", v) }

// WriteCSV emits the report as CSV (header row first).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(r.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSVs writes each report to dir as <id>_<n>_<slug>.csv and returns
// the file names, for feeding the numbers into plotting scripts.
func SaveCSVs(dir string, reports []*Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var names []string
	for i, r := range reports {
		name := fmt.Sprintf("%s_%d_%s.csv", r.ID, i, slug(r.Title))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return names, err
		}
		if err := r.WriteCSV(f); err != nil {
			//ksplint:ignore droppederr -- error-path cleanup; the write error already wins
			f.Close()
			return names, err
		}
		if err := f.Close(); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

// RunMeta records the configuration a JSON report set was produced
// under, so a saved document carries its own provenance.
type RunMeta struct {
	Tool        string   `json:"tool"`
	Generated   string   `json:"generated,omitempty"` // RFC 3339
	Scale       int      `json:"scale"`
	Queries     int      `json:"queries"`
	Seed        int64    `json:"seed"`
	GoVersion   string   `json:"goVersion"`
	GOOS        string   `json:"goos,omitempty"`
	GOARCH      string   `json:"goarch,omitempty"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"numCPU"`
	Experiments []string `json:"experiments"`
}

// jsonDoc is the top-level shape WriteJSON emits.
type jsonDoc struct {
	Meta    RunMeta           `json:"meta"`
	Reports []*Report         `json:"reports"`
	Metrics []obs.MetricPoint `json:"metrics,omitempty"`
}

// WriteJSON emits the reports plus run metadata as one indented JSON
// document — the machine-readable counterpart of Print/WriteCSV.
func WriteJSON(w io.Writer, meta RunMeta, reports []*Report) error {
	return WriteJSONMetrics(w, meta, reports, nil)
}

// WriteJSONMetrics is WriteJSON plus the run's cumulative engine
// metrics (from Suite.Metrics), so a benchmark document carries the
// evaluation counters behind its tables.
func WriteJSONMetrics(w io.Writer, meta RunMeta, reports []*Report, metrics []obs.MetricPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonDoc{Meta: meta, Reports: reports, Metrics: metrics})
}

// slug compresses a title into a file-name fragment.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			if n := b.Len(); n > 0 && b.String()[n-1] != '-' {
				b.WriteByte('-')
			}
		}
		if b.Len() >= 40 {
			break
		}
	}
	return strings.Trim(b.String(), "-")
}
