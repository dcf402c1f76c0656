// Command realdata is the analysis tool the paper's Notes section announced:
// it reads a RealTracer trace (CSV or JSON, as written by cmd/study or a
// live cmd/realtracer run) and regenerates the study's figures from it,
// decoupling collection from analysis.
//
// Usage:
//
//	realdata -in trace.csv [-figure figNN] [-summary]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"realtracer/internal/figures"
	"realtracer/internal/trace"
)

func main() {
	in := flag.String("in", "", "trace file (.csv or .json)")
	figure := flag.String("figure", "", "regenerate one figure (fig05..fig28)")
	summary := flag.Bool("summary", false, "print headline statistics only")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "realdata: -in trace file required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer f.Close()
	var recs []*trace.Record
	if strings.HasSuffix(*in, ".json") {
		recs, err = trace.ReadJSON(f)
	} else {
		recs, err = trace.ReadCSV(f)
	}
	if err != nil {
		fatalf("parse %s: %v", *in, err)
	}
	if len(recs) == 0 {
		fatalf("no records in %s", *in)
	}
	agg := figures.Aggregate(recs)
	switch {
	case *figure != "":
		g, ok := figures.ByID(*figure)
		if !ok {
			fatalf("unknown figure %q", *figure)
		}
		g.Agg(agg).Render(os.Stdout)
	case *summary:
		fmt.Printf("trace %s: %d records from %d users\n", *in, agg.Total(), agg.Users())
		agg.WriteSummary(os.Stdout)
	default:
		for _, g := range figures.All() {
			g.Agg(agg).Render(os.Stdout)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
