package graph_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestMarshalJSONMatchesReference pins json.Marshal and WriteJSON output to
// the reflection encoder's bytes on every mean and ratio corpus graph, and
// checks that DecodeJSON reads each one back unchanged.
func TestMarshalJSONMatchesReference(t *testing.T) {
	for _, corpus := range []map[string]*graph.Graph{testutil.MeanCorpus(t), testutil.RatioCorpus(t)} {
		for name, g := range corpus {
			want, err := graph.ReferenceMarshalJSON(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: json.Marshal differs from the reflection encoder:\n got %.200s\nwant %.200s", name, got, want)
			}
			var wantIndent, gotIndent bytes.Buffer
			if err := json.Indent(&wantIndent, want, "", "  "); err != nil {
				t.Fatal(err)
			}
			wantIndent.WriteByte('\n')
			if err := graph.WriteJSON(&gotIndent, g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotIndent.Bytes(), wantIndent.Bytes()) {
				t.Fatalf("%s: WriteJSON differs from the indented reflection encoding", name)
			}
			back, err := graph.DecodeJSON(got)
			if err != nil {
				t.Fatalf("%s: DecodeJSON of the encoding: %v", name, err)
			}
			if back.NumNodes() != g.NumNodes() || !slices.Equal(back.Arcs(), g.Arcs()) {
				t.Fatalf("%s: DecodeJSON did not read the encoding back unchanged", name)
			}
		}
	}
}
