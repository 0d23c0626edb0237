package graph

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestArcCapacity checks the pre-size estimate: exact on a marshaled graph,
// blind to braces inside strings (escaped quotes included).
func TestArcCapacity(t *testing.T) {
	g := FromArcs(3, []Arc{{0, 1, 4, 1}, {1, 2, -3, 2}, {2, 0, 7, 1}, {2, 2, 1, 1}})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := arcCapacity(data); got != g.NumArcs() {
		t.Errorf("arcCapacity(marshaled 4-arc graph) = %d", got)
	}
	for body, want := range map[string]int{
		`{"nodes":1,"arcs":[{}],"pad":"{{{"}`:      1,
		`{"nodes":1,"arcs":[{}],"pad":"\"{{\\\\"}`: 1,
		`{"nodes":1,"arcs":[{},{}],"pad":"\\\\"}`:  2,
		`{"nodes":0,"arcs":[],"pad":"{\"}{"}`:      0,
		`"{{{{"`:                                   0,
		``:                                         0,
	} {
		if got := arcCapacity([]byte(body)); got != want {
			t.Errorf("arcCapacity(%s) = %d, want %d", body, got, want)
		}
	}
}

// TestUnmarshalJSONBracePadding feeds bodies padded with a MiB of '{'
// inside a string. Counting every '{' would pre-size 2^20 arcs (24 MiB);
// counting outside strings keeps each decode within the few hundred bytes
// it allocated before pre-sizing (at most 968 B on these bodies), and each
// returns the error it returned then.
func TestUnmarshalJSONBracePadding(t *testing.T) {
	pad := strings.Repeat("{", 1<<20)
	cases := []struct{ body, err string }{
		{`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":2}],"pad":"` + pad + `"}`, ""},
		{`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":1}],"pad":"` + pad + `\"{"}`, ""},
		{`{"nodes":-1,"arcs":[],"pad":"` + pad + `"}`, "graph: negative node count -1"},
		{`{"nodes":2,"arcs":[{"from":0,"to":5,"weight":1}],"pad":"` + pad + `"}`, "graph: arc 0 endpoint out of range"},
		{`{"nodes":"` + pad + `"}`, "json: cannot unmarshal string into Go struct field jsonGraph.nodes of type int"},
	}
	for i, tc := range cases {
		data := []byte(tc.body)
		least := uint64(1 << 62)
		var err error
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = json.Unmarshal(data, new(Graph))
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("body %d: err = %q, want %q", i, got, tc.err)
		}
		if least > 2048 {
			t.Errorf("body %d: decode allocated %d B, want <= 2048", i, least)
		}
	}
}
