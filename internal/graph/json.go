package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// The JSON wire shape is an explicit node count plus an arc list:
//
//	{"nodes":3,"arcs":[{"from":0,"to":1,"weight":2},{"from":1,"to":2,"weight":3,"transit":4}]}
//
// transit is left out when it is 1 and kept explicit otherwise (a zero
// transit matters to the ratio problem).

// MarshalJSON implements json.Marshaler, writing the compact wire shape.
func (g *Graph) MarshalJSON() ([]byte, error) {
	// About 48 bytes an arc for small endpoints and weights; append grows
	// the rest.
	buf := make([]byte, 0, 32+48*len(g.arcs))
	buf = append(buf, `{"nodes":`...)
	buf = strconv.AppendInt(buf, int64(g.NumNodes()), 10)
	buf = append(buf, `,"arcs":[`...)
	for i, a := range g.arcs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"from":`...)
		buf = strconv.AppendInt(buf, int64(a.From), 10)
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(a.To), 10)
		buf = append(buf, `,"weight":`...)
		buf = strconv.AppendInt(buf, a.Weight, 10)
		if a.Transit != 1 {
			buf = append(buf, `,"transit":`...)
			buf = strconv.AppendInt(buf, a.Transit, 10)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON; a *Graph must
// be allocated first (use ReadJSON for streams).
func (g *Graph) UnmarshalJSON(data []byte) error {
	dec, err := DecodeJSON(data)
	if err != nil {
		return err
	}
	*g = *dec
	return nil
}

// DecodeJSON parses a JSON graph in one pass over data, appending each arc
// straight into the slice the Graph keeps.
//
// It accepts what encoding/json accepted when decoding into the wire shape:
// member names match case-insensitively (bytes.EqualFold, after unquoting
// escapes), unknown members are skipped once their syntax checks out,
// nesting is capped at 10000 levels, null means absent (a null transit is
// 1, a null arc is {}), and every number must be an integer in its field's
// range (int32 endpoints, int64 weight and transit), so 2.0 and 1e2 are
// rejected. The one difference: a member of the graph or of an arc given
// twice, in any letter case, is an error instead of overwriting the first.
//
// As for the text reader, node and arc counts above MaxDim and endpoints
// outside [0, nodes) are errors.
func DecodeJSON(data []byte) (*Graph, error) {
	d := jsonDecoder{data: data}
	nodes, arcs, err := d.document()
	if err != nil {
		return nil, err
	}
	if nodes < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", nodes)
	}
	// Same dimension cap as the text reader: a hostile node count must not
	// drive a multi-GB index allocation in FromArcs before validation.
	if nodes > maxReadDim || len(arcs) > maxReadDim {
		return nil, fmt.Errorf("graph: size %dx%d exceeds limit %d", nodes, len(arcs), maxReadDim)
	}
	for i, a := range arcs {
		if a.From < 0 || int64(a.From) >= nodes || a.To < 0 || int64(a.To) >= nodes {
			return nil, fmt.Errorf("graph: arc %d endpoint out of range", i)
		}
	}
	return FromArcs(int(nodes), arcs), nil
}

// errRepeatedMember marks the one input DecodeJSON refuses that
// encoding/json took: a known member given twice in one object.
var errRepeatedMember = errors.New("repeated member")

// jsonMaxDepth is encoding/json's nesting limit; counting the same way keeps
// the two accepting the same documents.
const jsonMaxDepth = 10000

// Member names of the graph object and of an arc object, in field order.
var (
	graphMembers = []string{"nodes", "arcs"}
	arcMembers   = []string{"from", "to", "weight", "transit"}
)

// jsonDecoder is a cursor over one JSON document.
type jsonDecoder struct {
	data []byte
	pos  int
	key  [32]byte // unquoted member name; longer names match nothing
}

func (d *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("graph: JSON offset %d: "+format, append([]any{d.pos}, args...)...)
}

// unexpected reports the byte at d.pos, or the end of input.
func (d *jsonDecoder) unexpected() error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("invalid character %q", d.data[d.pos])
}

func (d *jsonDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of input (0 never starts
// a JSON token).
func (d *jsonDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// document reads the top-level value and checks that only whitespace
// follows it.
func (d *jsonDecoder) document() (nodes int64, arcs []Arc, err error) {
	d.ws()
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		nodes, arcs, err = d.graph()
	case 0:
		err = d.unexpected()
	default:
		err = d.errorf("graph must be a JSON object")
	}
	if err != nil {
		return 0, nil, err
	}
	d.ws()
	if d.pos < len(d.data) {
		return 0, nil, d.errorf("invalid character %q after top-level value", d.data[d.pos])
	}
	return nodes, arcs, nil
}

// graph reads the graph object; d.pos is at its '{'.
func (d *jsonDecoder) graph() (int64, []Arc, error) {
	d.pos++
	var (
		nodes int64
		arcs  []Arc
		seen  [2]bool
	)
	for first := true; ; first = false {
		field, done, err := d.member(first, graphMembers, seen[:])
		if err != nil || done {
			return nodes, arcs, err
		}
		switch field {
		case 0:
			nodes, err = d.integer(graphMembers[field], 64, nodes)
		case 1:
			arcs, err = d.arcList()
		default:
			err = d.skip(1)
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// arcList reads the value of "arcs": an array of arc objects, or null.
func (d *jsonDecoder) arcList() ([]Arc, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.errorf(`"arcs" wants an array`)
	}
	d.pos++
	arcs := make([]Arc, 0, arcCapacity(d.data))
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return arcs, nil
	}
	for {
		d.ws()
		a := Arc{Transit: 1}
		switch d.peek() {
		case '{':
			if err := d.arc(&a); err != nil {
				return nil, err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return nil, err
			}
		default:
			return nil, d.errorf("arc %d wants an object", len(arcs))
		}
		arcs = append(arcs, a)
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return arcs, nil
		default:
			return nil, d.unexpected()
		}
	}
}

// arc reads one arc object into a; d.pos is at its '{'.
func (d *jsonDecoder) arc(a *Arc) error {
	d.pos++
	var seen [4]bool
	for first := true; ; first = false {
		field, done, err := d.member(first, arcMembers, seen[:])
		if err != nil || done {
			return err
		}
		var v int64
		switch field {
		case 0:
			v, err = d.integer(arcMembers[field], 32, int64(a.From))
			a.From = NodeID(v)
		case 1:
			v, err = d.integer(arcMembers[field], 32, int64(a.To))
			a.To = NodeID(v)
		case 2:
			a.Weight, err = d.integer(arcMembers[field], 64, a.Weight)
		case 3:
			a.Transit, err = d.integer(arcMembers[field], 64, a.Transit)
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// member steps to the next member of the object being read and returns the
// index of its name in names (-1 for an unknown name), leaving d.pos at the
// start of the value; done is set instead at the object's closing '}'. first
// marks the first call after the '{'. seen records the names already read,
// so that a repeat is an error.
func (d *jsonDecoder) member(first bool, names []string, seen []bool) (field int, done bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return 0, true, nil
	case first:
	case c == ',':
		d.pos++
		d.ws()
	default:
		return 0, false, d.unexpected()
	}
	if d.peek() != '"' {
		return 0, false, d.unexpected()
	}
	key, escaped, err := d.str()
	if err != nil {
		return 0, false, err
	}
	field = d.lookup(key, escaped, names)
	if field >= 0 {
		if seen[field] {
			return 0, false, d.errorf("%w %q", errRepeatedMember, names[field])
		}
		seen[field] = true
	}
	d.ws()
	if d.peek() != ':' {
		return 0, false, d.unexpected()
	}
	d.pos++
	d.ws()
	return field, false, nil
}

// lookup returns the index in names of the member name key, given as it
// stands between the quotes, or -1.
func (d *jsonDecoder) lookup(key []byte, escaped bool, names []string) int {
	if !escaped {
		for i, n := range names {
			if string(key) == n {
				return i
			}
		}
	} else if key = d.unquote(key); key == nil {
		return -1
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// unquote resolves the escapes of a validated member name into d.key. It
// returns nil when the result cannot match an ASCII member name: it does not
// fit in d.key (no such name folds to more than 3 bytes a letter), or it
// holds a UTF-16 surrogate (a pair makes a rune above the BMP, which folds to
// no ASCII letter, and a lone one decodes as U+FFFD).
func (d *jsonDecoder) unquote(key []byte) []byte {
	out := d.key[:0]
	for i := 0; i < len(key); i++ {
		if len(out)+utf8.UTFMax > len(d.key) {
			return nil
		}
		c := key[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch c = key[i]; c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r, _ := strconv.ParseUint(string(key[i+1:i+5]), 16, 32)
			i += 4
			if 0xD800 <= r && r < 0xE000 {
				return nil
			}
			out = utf8.AppendRune(out, rune(r))
			continue
		}
		out = append(out, c) // c is now the escaped byte; '"', '\\' and '/' stand for themselves
	}
	return out
}

// str validates the string at d.pos (its opening quote) and returns its raw
// contents and whether they hold an escape.
func (d *jsonDecoder) str() (raw []byte, escaped bool, err error) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], escaped, nil
		case c == '\\':
			escaped = true
			i++
			d.pos = i
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					d.pos++
					if !isHex(d.peek()) {
						return nil, false, d.unexpected()
					}
				}
				i = d.pos
			default:
				return nil, false, d.unexpected()
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.errorf("control character %q in string", c)
		}
	}
	d.pos = len(d.data)
	return nil, false, d.unexpected()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// literal consumes lit (true, false or null) at d.pos.
func (d *jsonDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.unexpected()
		}
		d.pos++
	}
	return nil
}

// integer reads the value of the integer member name: null leaves absent
// unchanged; otherwise it must be an integer that fits in a signed
// integer of the given bits.
func (d *jsonDecoder) integer(name string, bits uint, absent int64) (int64, error) {
	start := d.pos
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	var mag uint64
	switch c := d.peek(); {
	case c == 'n' && !neg:
		return absent, d.literal("null")
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		for ; d.pos < len(d.data); d.pos++ {
			c := d.data[d.pos]
			if c < '0' || c > '9' {
				break
			}
			if mag > 1<<63/10 {
				d.pos = start
				return 0, d.errorf("%q out of range", name)
			}
			mag = mag*10 + uint64(c-'0')
		}
	case neg || c == 0:
		return 0, d.unexpected()
	default:
		return 0, d.errorf("%q wants an integer", name)
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		d.pos = start
		return 0, d.errorf("%q wants an integer", name)
	}
	limit := uint64(1) << (bits - 1) // |min|; max is limit-1
	if mag > limit || (!neg && mag == limit) {
		d.pos = start
		return 0, d.errorf("%q out of range", name)
	}
	v := int64(mag)
	if neg {
		v = -v
	}
	return v, nil
}

// skip validates and steps over one value of any type, d.pos at its first
// byte. depth is the nesting level of the object that holds it.
func (d *jsonDecoder) skip(depth int) error {
	// Bit k of object tells whether the k-th container open inside the
	// value is an object; open counts them.
	var object [jsonMaxDepth/64 + 1]uint64
	open := 0
	inObject := func() bool { return object[(open-1)/64]>>((open-1)%64)&1 == 1 }
	for {
		// A value starts at d.pos.
		switch c := d.peek(); c {
		case '{', '[':
			if depth+open >= jsonMaxDepth {
				return d.errorf("nesting exceeds %d levels", jsonMaxDepth)
			}
			if c == '{' {
				object[open/64] |= 1 << (open % 64)
			} else {
				object[open/64] &^= 1 << (open % 64)
			}
			open++
			d.pos++
			d.ws()
			if c == '[' && d.peek() == ']' || c == '{' && d.peek() == '}' {
				d.pos++
				open--
				break
			}
			if c == '{' {
				if err := d.name(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one has a next element.
		for {
			if open == 0 {
				return nil
			}
			d.ws()
			closer := byte(']')
			if inObject() {
				closer = '}'
			}
			c := d.peek()
			if c == ',' {
				d.pos++
				d.ws()
				if closer == '}' {
					if err := d.name(); err != nil {
						return err
					}
				}
				break
			}
			if c != closer {
				return d.unexpected()
			}
			d.pos++
			open--
		}
	}
}

// name reads a member name and its colon inside a skipped object, leaving
// d.pos at the value.
func (d *jsonDecoder) name() error {
	if d.peek() != '"' {
		return d.unexpected()
	}
	if _, _, err := d.str(); err != nil {
		return err
	}
	d.ws()
	if d.peek() != ':' {
		return d.unexpected()
	}
	d.pos++
	d.ws()
	return nil
}

// number validates a JSON number at d.pos.
func (d *jsonDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.unexpected()
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return d.unexpected()
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return d.unexpected()
		}
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *jsonDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// arcCapacity estimates the arc count of a JSON graph body as the number of
// objects it opens outside strings, less the graph object itself, capped at
// maxReadDim+1 (one more arc than DecodeJSON accepts). Braces inside
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

// WriteJSON serializes g as indented JSON to w.
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
	return DecodeJSON(data)
}
