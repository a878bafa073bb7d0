package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleTraceWritesValidJSON pins that TracePath alone makes Scale
// write its spliced Chrome trace: the file exists, parses as JSON, and
// holds one process per shard.
func TestScaleTraceWritesValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	var out bytes.Buffer
	if err := Scale(&out, ScaleOptions{Tasks: 2000, Shards: 2, TracePath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-trace file not written: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("-trace file is not valid JSON (%d bytes)", len(data))
	}
	for _, scope := range []string{"scale/shard0", "scale/shard1"} {
		if !bytes.Contains(data, []byte(`"name":"`+scope+`"`)) {
			t.Errorf("trace has no process named %q", scope)
		}
	}
	if !strings.Contains(out.String(), "config: tasks=2000 shards=2 ") {
		t.Errorf("artifact config line missing:\n%s", out.String())
	}
}
