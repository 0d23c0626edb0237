package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// refGraph and refArc are the reflection wire shape that DecodeJSON and
// MarshalJSON replaced. They stay here as the reference both are checked
// against.
type refGraph struct {
	Nodes int      `json:"nodes"`
	Arcs  []refArc `json:"arcs"`
}

type refArc struct {
	From    int32  `json:"from"`
	To      int32  `json:"to"`
	Weight  int64  `json:"weight"`
	Transit *int64 `json:"transit,omitempty"` // nil means 1 (a zero transit is kept explicit)
}

// referenceDecodeJSON is the reflection decoder: encoding/json into the wire
// shape, then the same node-count, size and endpoint checks as DecodeJSON.
func referenceDecodeJSON(data []byte) (*Graph, error) {
	var in refGraph
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	if in.Nodes < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", in.Nodes)
	}
	if in.Nodes > maxReadDim || len(in.Arcs) > maxReadDim {
		return nil, fmt.Errorf("graph: size %dx%d exceeds limit %d", in.Nodes, len(in.Arcs), maxReadDim)
	}
	arcs := make([]Arc, len(in.Arcs))
	for i, ja := range in.Arcs {
		if ja.From < 0 || int(ja.From) >= in.Nodes || ja.To < 0 || int(ja.To) >= in.Nodes {
			return nil, fmt.Errorf("graph: arc %d endpoint out of range", i)
		}
		t := int64(1)
		if ja.Transit != nil {
			t = *ja.Transit
		}
		arcs[i] = Arc{From: ja.From, To: ja.To, Weight: ja.Weight, Transit: t}
	}
	return FromArcs(in.Nodes, arcs), nil
}

// ReferenceMarshalJSON is the reflection encoder, exported to the external
// test package whose corpus test pins MarshalJSON's bytes to it.
func ReferenceMarshalJSON(g *Graph) ([]byte, error) {
	out := refGraph{Nodes: g.NumNodes(), Arcs: make([]refArc, g.NumArcs())}
	for i, a := range g.Arcs() {
		ra := refArc{From: a.From, To: a.To, Weight: a.Weight}
		if a.Transit != 1 {
			t := a.Transit
			ra.Transit = &t
		}
		out.Arcs[i] = ra
	}
	return json.Marshal(out)
}

// sameGraph reports whether a and b have the same node count and arc slice.
func sameGraph(a, b *Graph) bool {
	return a.NumNodes() == b.NumNodes() && slices.Equal(a.Arcs(), b.Arcs())
}

// g4kJSON is the compact JSON of a 4096-node, 16384-arc graph, the size of
// the served benchmark's graphs.
func g4kJSON(tb testing.TB) []byte {
	data, err := json.Marshal(randomGraph(4096, 16384, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

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
// counting outside strings keeps each decode within a few hundred bytes,
// and each returns the error it returned under the reflection decoder
// (body 4 now with DecodeJSON's text). Both the json.Unmarshal path, which
// pre-scans the body, and DecodeJSON are held to the bound.
func TestUnmarshalJSONBracePadding(t *testing.T) {
	pad := strings.Repeat("{", 1<<20)
	cases := []struct{ body, err string }{
		{`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":2}],"pad":"` + pad + `"}`, ""},
		{`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":1}],"pad":"` + pad + `\"{"}`, ""},
		{`{"nodes":-1,"arcs":[],"pad":"` + pad + `"}`, "graph: negative node count -1"},
		{`{"nodes":2,"arcs":[{"from":0,"to":5,"weight":1}],"pad":"` + pad + `"}`, "graph: arc 0 endpoint out of range"},
		{`{"nodes":"` + pad + `"}`, `graph: JSON offset 9: "nodes" wants an integer`},
	}
	decoders := map[string]func([]byte) error{
		"json.Unmarshal": func(data []byte) error { return json.Unmarshal(data, new(Graph)) },
		"DecodeJSON":     func(data []byte) error { _, err := DecodeJSON(data); return err },
	}
	for i, tc := range cases {
		data := []byte(tc.body)
		for name, decode := range decoders {
			least := uint64(1 << 62)
			var err error
			for rep := 0; rep < 3; rep++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = decode(data)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err {
				t.Errorf("body %d, %s: err = %q, want %q", i, name, got, tc.err)
			}
			if least > 2048 {
				t.Errorf("body %d, %s: decode allocated %d B, want <= 2048", i, name, least)
			}
		}
	}
}

// TestDecodeJSONDeepNesting nests a MiB of '[' inside an unknown member: the
// skipper must refuse it at encoding/json's depth limit instead of running
// out of stack, and accept exactly the depths encoding/json accepts.
func TestDecodeJSONDeepNesting(t *testing.T) {
	deep := `{"pad":` + strings.Repeat("[", 1<<20) + `}`
	if _, err := DecodeJSON([]byte(deep)); err == nil || !strings.Contains(err.Error(), "nesting exceeds 10000 levels") {
		t.Errorf("2^20 nested arrays: err = %v, want the nesting limit", err)
	}
	// The graph object is level 1, so the member may open 9999 more.
	for _, open := range []int{9999, 10000} {
		body := []byte(`{"nodes":0,"pad":` + strings.Repeat("[", open) + strings.Repeat("]", open) + `}`)
		_, err := DecodeJSON(body)
		_, refErr := referenceDecodeJSON(body)
		if (err == nil) != (refErr == nil) || (err == nil) != (open < 10000) {
			t.Errorf("%d nested arrays: DecodeJSON err = %v, reference err = %v", open, err, refErr)
		}
	}
}

// TestDecodeJSONRepeatedMember pins the one intended difference from the
// reflection decoder, which let a second "arcs" decode into the first
// one's elements.
func TestDecodeJSONRepeatedMember(t *testing.T) {
	for _, tc := range []struct {
		body string
		ref  Arc // what the reference decoder made of the body's only arc
	}{
		{`{"nodes":2,"arcs":[{"from":1,"to":1,"weight":5}],"arcs":[{"to":0}]}`, Arc{1, 0, 5, 1}},
		{`{"nodes":2,"arcs":[{"from":1,"to":1,"weight":5,"WEIGHT":7}]}`, Arc{1, 1, 7, 1}},
		{`{"nodes":2,"NODES":2,"arcs":[{"from":1,"to":1,"weight":5}]}`, Arc{1, 1, 5, 1}},
		{`{"nodes":2,"arcs":[{"from":1,"to":1,"weight":5,"tranſit":3,"transit":null}]}`, Arc{1, 1, 5, 1}},
	} {
		ref, err := referenceDecodeJSON([]byte(tc.body))
		if err != nil || ref.NumArcs() != 1 || ref.Arc(0) != tc.ref {
			t.Fatalf("reference on %s = %v, %v", tc.body, ref, err)
		}
		if _, err := DecodeJSON([]byte(tc.body)); !errors.Is(err, errRepeatedMember) {
			t.Errorf("DecodeJSON(%s) err = %v, want a repeated member", tc.body, err)
		}
	}
}

// TestDecodeJSONAllocs pins a g4k decode at no more than 10 allocations:
// the arc slice and FromArcs's index arrays, nothing per arc.
func TestDecodeJSONAllocs(t *testing.T) {
	data := g4kJSON(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("g4k DecodeJSON: %.0f allocations, want <= 10", allocs)
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	data := g4kJSON(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeJSON checks DecodeJSON against the reflection decoder: on any
// input both fail, or both succeed with the same node count and arc slice.
// The one allowed difference is a repeated member, which DecodeJSON alone
// refuses. The json.Unmarshal path must agree with DecodeJSON.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":3},{"from":1,"to":0,"weight":-1,"transit":0}]}`,
		`{"NODES":2,"Arcs":[{"FROM":0,"To":1,"weight":3},{"from":1,"to":0,"WeIgHt":-1,"TRANSIT":2}]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":1,"tranſit":4}]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":1,"tran\u017fit":2}]}`,
		`{"\u006eodes":1,"arcs":[{"from":0,"to":0,"weight":1}]}`,
		`{"nodes":1,"\u0061rcs":[{"\"from":0,"to":0,"weight":1}]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":1,"😀":2,"\ud800":3}]}`,
		`null`,
		` null `,
		`{"nodes":1,"arcs":null}`,
		`{"nodes":1,"arcs":[null,{"from":0,"to":0,"weight":2}]}`,
		`{"nodes":null,"arcs":[]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":1,"transit":null}]}`,
		`{"nodes":1,"arcs":[{"from":-0,"to":0,"weight":-0}]}`,
		`{"nodes":1e2,"arcs":[]}`,
		`{"nodes":2.0,"arcs":[]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":1.5}]}`,
		`{"nodes":1,"arcs":[]} x`,
		`{"nodes":1,"arcs":[]}{}`,
		`{"nodes":1,"arcs":[],}`,
		`{"nodes":01,"arcs":[]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":9223372036854775807,"transit":-9223372036854775808}]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":0,"weight":9223372036854775808}]}`,
		`{"nodes":1,"arcs":[{"from":2147483648,"to":0,"weight":1}]}`,
		`{"nodes":1,"pad":{"a":[1,-2.5e+3,{"b":null,"c":[true,false]}],"d":"}\"\\\/\b\f\n\r\té"},"arcs":[{"from":0,"to":0,"weight":1,"x":[[{}]]}]}`,
		`{"nodes":2,"arcs":[{"from":1,"to":1,"weight":5}],"arcs":[{"to":0}]}`,
		`{"nodes":2,"arcs":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}],"ARCS":null}`,
		`{"nodes":"2","arcs":[]}`,
		`[{"nodes":1}]`,
		`{"nodes":1,"arcs":{}}`,
		`{"nodes":1,"arcs":[1]}`,
		`{"nodes":-1,"arcs":[]}`,
		`{"nodes":1,"arcs":[{"from":0,"to":1,"weight":1}]}`,
		`{"nodes":16777217}`,
		"{\"nodes\":1,\"pad\":\"\x01\"}",
		"{\"nodes\":1,\"pad\":\"\xff\"}",
		`{"nodes":1`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeJSON(data)
		want, refErr := referenceDecodeJSON(data)
		switch {
		case errors.Is(err, errRepeatedMember):
			return
		case err != nil && refErr != nil:
		case err != nil:
			t.Fatalf("DecodeJSON failed (%v) where the reference decoded %d nodes, %d arcs", err, want.NumNodes(), want.NumArcs())
		case refErr != nil:
			t.Fatalf("DecodeJSON decoded what the reference refused (%v)", refErr)
		case !sameGraph(got, want):
			t.Fatalf("DecodeJSON = %d nodes %v, reference = %d nodes %v", got.NumNodes(), got.Arcs(), want.NumNodes(), want.Arcs())
		}
		var viaUnmarshal Graph
		if uerr := json.Unmarshal(data, &viaUnmarshal); (uerr == nil) != (err == nil) {
			t.Fatalf("json.Unmarshal err = %v, DecodeJSON err = %v", uerr, err)
		} else if err == nil && !sameGraph(&viaUnmarshal, got) {
			t.Fatal("json.Unmarshal and DecodeJSON decoded different graphs")
		}
	})
}
