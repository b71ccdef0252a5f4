package simcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"ebm/internal/sim"
)

// decodeEntry parses an entry file without reflection. It accepts exactly
// the bytes json.Marshal(entry{...}) writes: the fields of entry,
// sim.Result, sim.AppResult and the decision record (sim.Decisions,
// sim.Change) in declaration order, omitempty fields only when set, no
// whitespace, lists as null, [] or a list of values. Everything it
// accepts, json.Unmarshal accepts too and decodes to a reflect.DeepEqual
// entry (TestDecodeEntryMatchesUnmarshal, FuzzDecodeEntry); anything else
// is an error, which Cache.get counts as a corrupt miss that the next Put
// heals. A field added to those structs changes the layout json.Marshal
// writes, so it must be added here as well: until it is, the tests fail
// and every read misses.
func decodeEntry(b []byte) (entry, error) {
	d := entryDecoder{b: b}
	var e entry
	d.lit(`{"schema":`)
	e.Schema = d.int()
	d.lit(`,"key":`)
	e.Key = d.str()
	d.lit(`,"result":{"Cycles":`)
	r := &e.Result
	r.Cycles = d.uint()
	d.lit(`,"TotalBW":`)
	r.TotalBW = d.float()
	d.lit(`,"Apps":`)
	r.Apps = list(&d, d.app)
	d.lit(`,"Windows":`)
	r.Windows = d.uint()
	if d.skip(`,"Decisions":`) {
		r.Decisions = d.decisions()
	}
	d.lit(`}}`)
	if len(d.b) > 0 {
		d.fail(errEntryLayout)
	}
	if d.err != nil {
		return entry{}, fmt.Errorf("simcache: decode entry: %w", d.err)
	}
	return e, nil
}

// app decodes one sim.AppResult object.
func (d *entryDecoder) app() (a sim.AppResult) {
	d.lit(`{"Name":`)
	a.Name = d.str()
	d.lit(`,"Insts":`)
	a.Insts = d.uint()
	d.lit(`,"IPC":`)
	a.IPC = d.float()
	d.lit(`,"L1MR":`)
	a.L1MR = d.float()
	d.lit(`,"L2MR":`)
	a.L2MR = d.float()
	d.lit(`,"CMR":`)
	a.CMR = d.float()
	d.lit(`,"BW":`)
	a.BW = d.float()
	d.lit(`,"EB":`)
	a.EB = d.float()
	d.lit(`,"RowHitRate":`)
	a.RowHitRate = d.float()
	d.lit(`,"AvgLatency":`)
	a.AvgLatency = d.float()
	d.lit(`,"MemStallFrac":`)
	a.MemStallFrac = d.float()
	d.lit(`,"IssueUtil":`)
	a.IssueUtil = d.float()
	d.lit(`,"AvgTLP":`)
	a.AvgTLP = d.float()
	d.lit(`,"FinalTLP":`)
	a.FinalTLP = d.int()
	d.lit(`,"Kernels":`)
	a.Kernels = d.uint()
	d.lit(`}`)
	return a
}

// decisions decodes one sim.Decisions object.
func (d *entryDecoder) decisions() *sim.Decisions {
	var r sim.Decisions
	d.lit(`{"Changes":`)
	r.Changes = list(d, d.change)
	d.lit(`,"Searches":`)
	r.Searches = d.uint()
	d.lit(`,"Restarts":`)
	r.Restarts = d.uint()
	d.lit(`,"Drifts":`)
	r.Drifts = d.uint()
	d.lit(`}`)
	return &r
}

// change decodes one sim.Change object.
func (d *entryDecoder) change() (c sim.Change) {
	d.lit(`{"Cycle":`)
	c.Cycle = d.uint()
	d.lit(`,"TLP":`)
	c.TLP = list(d, d.int)
	if d.skip(`,"Bypass":`) {
		c.Bypass = list(d, d.bool)
	}
	if d.skip(`,"Searching":`) {
		c.Searching = d.bool()
	}
	d.lit(`}`)
	return c
}

// list decodes a list of the values elem decodes: null is a nil slice
// and [] an empty one, as json.Unmarshal decodes them.
func list[T any](d *entryDecoder, elem func() T) []T {
	switch {
	case d.skip(`null`):
		return nil
	case d.skip(`[]`):
		return []T{}
	}
	d.lit(`[`)
	var vs []T
	for {
		vs = append(vs, elem())
		if !d.skip(`,`) {
			break
		}
	}
	d.lit(`]`)
	return vs
}

var errEntryLayout = errors.New("not the layout json.Marshal writes")

// entryDecoder consumes b from the front. The first failure records its
// error and empties b, so every later step fails too and the caller
// checks err once, at the end.
type entryDecoder struct {
	b   []byte
	err error
}

func (d *entryDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// skip consumes s if b starts with it and reports whether it did.
func (d *entryDecoder) skip(s string) bool {
	if len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// lit consumes s, which must come next.
func (d *entryDecoder) lit(s string) {
	if !d.skip(s) {
		d.fail(errEntryLayout)
	}
}

// number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it. strconv
// alone would also take +1, .5, 01, 0x1p-2 and inf, which JSON does not.
func (d *entryDecoder) number() []byte {
	b := d.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.fail(errEntryLayout)
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.fail(errEntryLayout)
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.fail(errEntryLayout)
			return nil
		}
		i = j
	}
	d.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// The number parsers convert as encoding/json does for the field's Go
// type, so a token it would refuse (a fraction for an integer, a
// negative uint64, a float beyond float64's range) fails here too.

func (d *entryDecoder) int() int {
	n, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
	if err != nil {
		d.fail(err)
	}
	return int(n)
}

func (d *entryDecoder) uint() uint64 {
	n, err := strconv.ParseUint(string(d.number()), 10, 64)
	if err != nil {
		d.fail(err)
	}
	return n
}

func (d *entryDecoder) bool() bool {
	if d.skip(`true`) {
		return true
	}
	d.lit(`false`)
	return false
}

func (d *entryDecoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail(err)
	}
	return f
}

// str consumes a string token. One of printable ASCII without a
// backslash, which is every name and key json.Marshal writes for this
// repository, is copied out directly; any other (an escape, a control
// byte, a non-ASCII byte) is handed whole to json.Unmarshal, so its
// escapes, UTF-8 repair and rejections are encoding/json's own.
func (d *entryDecoder) str() string {
	b := d.b
	if len(b) == 0 || b[0] != '"' {
		d.fail(errEntryLayout)
		return ""
	}
	slow := false
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.b = b[i+1:]
			if !slow {
				return string(b[1:i])
			}
			var s string
			if err := json.Unmarshal(b[:i+1], &s); err != nil {
				d.fail(err)
			}
			return s
		case c == '\\':
			slow = true
			i++ // the escaped byte, which may be a quote
		case c < 0x20 || c >= 0x80:
			slow = true
		}
	}
	d.fail(errEntryLayout)
	return ""
}
