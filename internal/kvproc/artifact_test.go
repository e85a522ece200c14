package kvproc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteJSONStampsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "a.json")
	art := struct {
		Header
		Rows []int `json:"rows"`
	}{Header: Header{Name: "t", Params: map[string]any{"k": 1}}, Rows: []int{1, 2}}
	if err := WriteJSON(path, &art); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Name string
		Host struct {
			NumCPU int `json:"num_cpu"`
		}
		Rows []int
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "t" || back.Host.NumCPU < 1 || len(back.Rows) != 2 || strings.Contains(string(raw), `"kind"`) {
		t.Fatalf("artifact = %s", raw)
	}
}
