package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the JSON wire shape: explicit node count plus an arc list.
type jsonGraph struct {
	Nodes int       `json:"nodes"`
	Arcs  []jsonArc `json:"arcs"`
}

type jsonArc struct {
	From    int32  `json:"from"`
	To      int32  `json:"to"`
	Weight  int64  `json:"weight"`
	Transit *int64 `json:"transit,omitempty"` // nil means 1 (a zero transit is kept explicit)
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{Nodes: g.NumNodes(), Arcs: make([]jsonArc, g.NumArcs())}
	for i, a := range g.Arcs() {
		ja := jsonArc{From: a.From, To: a.To, Weight: a.Weight}
		if a.Transit != 1 {
			t := a.Transit
			ja.Transit = &t
		}
		out.Arcs[i] = ja
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler; note that a *Graph must be
// allocated first (json.Unmarshal(data, &g) with g *Graph... use
// ReadJSON for streams).
func (g *Graph) UnmarshalJSON(data []byte) error {
	// Size the arc slice up front; encoding/json appends into its capacity
	// instead of growing it by doubling.
	in := jsonGraph{Arcs: make([]jsonArc, 0, arcCapacity(data))}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Nodes < 0 {
		return fmt.Errorf("graph: negative node count %d", in.Nodes)
	}
	// Same dimension cap as the text reader: a hostile node count must not
	// drive a multi-GB index allocation in FromArcs before validation.
	if in.Nodes > maxReadDim || len(in.Arcs) > maxReadDim {
		return fmt.Errorf("graph: size %dx%d exceeds limit %d", in.Nodes, len(in.Arcs), maxReadDim)
	}
	arcs := make([]Arc, len(in.Arcs))
	for i, ja := range in.Arcs {
		if ja.From < 0 || int(ja.From) >= in.Nodes || ja.To < 0 || int(ja.To) >= in.Nodes {
			return fmt.Errorf("graph: arc %d endpoint out of range", i)
		}
		t := int64(1)
		if ja.Transit != nil {
			t = *ja.Transit
		}
		arcs[i] = Arc{From: ja.From, To: ja.To, Weight: ja.Weight, Transit: t}
	}
	*g = *FromArcs(in.Nodes, arcs)
	return nil
}

// arcCapacity estimates the arc count of a JSON graph body as the number of
// objects it opens outside strings, less the graph object itself, capped at
// maxReadDim+1 (one more arc than UnmarshalJSON accepts). Braces inside
// strings are skipped, so padding a body with them cannot inflate the
// allocation.
func arcCapacity(data []byte) int {
	objects := 0
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '{':
			objects++
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		}
	}
	return min(max(objects-1, 0), maxReadDim+1)
}

// WriteJSON serializes g as JSON to w.
func WriteJSON(w io.Writer, g *Graph) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON parses a JSON graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g := new(Graph)
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}
