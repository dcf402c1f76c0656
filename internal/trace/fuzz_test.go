package trace_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"testing"

	"realtracer/internal/figures"
	"realtracer/internal/trace"
)

// analyze runs decoded records through everything cmd/realdata does with
// them: the aggregate build, the headline summary and every figure render.
func analyze(recs []*trace.Record) {
	agg := figures.Aggregate(recs)
	agg.WriteSummary(io.Discard)
	for _, g := range figures.All() {
		g.Agg(agg).Render(io.Discard)
	}
}

// fuzzSeeds returns the seed traces in both encodings: a WriteCSV trace,
// the same trace cut to the legacy 30- and 31-column schemas (CSV only),
// and a trace whose bandwidths span more than float64 can subtract.
func fuzzSeeds(f *testing.F) (csvs, jsons [][]byte) {
	wide := []*trace.Record{trace.Sample()[0], trace.Sample()[0]}
	wide[0].MeasuredKbps, wide[1].MeasuredKbps = -1e308, 1e308
	for _, recs := range [][]*trace.Record{trace.Sample(), wide} {
		var c, j bytes.Buffer
		if err := trace.WriteCSV(&c, recs); err != nil {
			f.Fatal(err)
		}
		if err := trace.WriteJSON(&j, recs); err != nil {
			f.Fatal(err)
		}
		csvs, jsons = append(csvs, c.Bytes()), append(jsons, j.Bytes())
	}
	rows, err := csv.NewReader(bytes.NewReader(csvs[0])).ReadAll()
	if err != nil {
		f.Fatal(err)
	}
	for _, width := range []int{30, 31} {
		var legacy bytes.Buffer
		cw := csv.NewWriter(&legacy)
		for _, row := range rows {
			if err := cw.Write(row[:width]); err != nil {
				f.Fatal(err)
			}
		}
		cw.Flush()
		csvs = append(csvs, legacy.Bytes())
	}
	return csvs, jsons
}

// FuzzReadCSV: ReadCSV returns an error on hostile input, never panics or
// hangs, and whatever it accepts analyzes without panicking.
func FuzzReadCSV(f *testing.F) {
	csvs, _ := fuzzSeeds(f)
	for _, c := range csvs {
		f.Add(c)
	}
	f.Add([]byte("[null]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadCSV(bytes.NewReader(data))
		if err == nil {
			analyze(recs)
		}
	})
}

// FuzzReadJSON is FuzzReadCSV's counterpart for the JSON codec.
func FuzzReadJSON(f *testing.F) {
	csvs, jsons := fuzzSeeds(f)
	for _, in := range append(jsons, csvs...) {
		f.Add(in)
	}
	f.Add([]byte("[null]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadJSON(bytes.NewReader(data))
		if err == nil {
			analyze(recs)
		}
	})
}
