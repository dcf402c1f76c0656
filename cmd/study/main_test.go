package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtracer/internal/study"
	"realtracer/internal/trace"
)

var pipelineOpts = study.Options{Seed: 11, MaxUsers: 4, ClipCap: 2}

// runOutput runs one study invocation and returns what it printed.
func runOutput(t *testing.T, s runSpec) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runStudy(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// dropLines removes the lines starting with prefix: the per-file "wrote"
// and "checkpoint:" notices that only some invocations print.
func dropLines(out, prefix string) string {
	var keep []string
	for _, l := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(l, prefix) {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "")
}

// TestRunStudyTraceFiles: the streamed -out CSV and the collected -json
// file hold exactly the records of a retained study.Run, and the run still
// prints the same headline block as a plain run.
func TestRunStudyTraceFiles(t *testing.T) {
	res, err := study.Run(pipelineOpts)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV, wantJSON bytes.Buffer
	if err := trace.WriteCSV(&wantCSV, res.Records); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSON(&wantJSON, res.Records); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	csvFile, jsonFile := filepath.Join(dir, "t.csv"), filepath.Join(dir, "t.json")
	plain := runOutput(t, runSpec{opts: pipelineOpts})
	files := runOutput(t, runSpec{opts: pipelineOpts, csv: csvFile, json: jsonFile})
	for file, want := range map[string][]byte{csvFile: wantCSV.Bytes(), jsonFile: wantJSON.Bytes()} {
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the retained run's records", filepath.Base(file))
		}
	}
	if !strings.Contains(plain, "played=") {
		t.Fatalf("plain run printed no headline block:\n%s", plain)
	}
	if got := dropLines(files, "wrote "); got != plain {
		t.Errorf("summary with -out/-json differs from the plain run:\n%s\nvs\n%s", got, plain)
	}
}

// TestRunStudyCheckpointSameFigures: a checkpointed run and the run
// resumed from its snapshot feed their retained records through the same
// pipeline, so they render the straight run's figures byte for byte.
func TestRunStudyCheckpointSameFigures(t *testing.T) {
	straight := runOutput(t, runSpec{opts: pipelineOpts, figures: true})
	res, err := study.Run(pipelineOpts)
	if err != nil {
		t.Fatal(err)
	}
	snapFile := filepath.Join(t.TempDir(), "warm.snap")
	ck := runOutput(t, runSpec{opts: pipelineOpts, checkpoint: snapFile, warmup: res.SimDuration / 2, figures: true})
	if got := dropLines(ck, "checkpoint: "); got != straight {
		t.Error("checkpointed run's figures differ from the straight run")
	}
	if got := runOutput(t, runSpec{resume: snapFile, figures: true}); got != straight {
		t.Error("resumed run's figures differ from the straight run")
	}
}

func TestRunStudyUnknownFigure(t *testing.T) {
	err := runStudy(&bytes.Buffer{}, runSpec{opts: pipelineOpts, figure: "fig99"})
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown figure: got %v", err)
	}
}
