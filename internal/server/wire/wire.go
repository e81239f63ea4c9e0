// Package wire defines the length-prefixed frame protocol spoken between
// energyd and its clients. The protocol is deliberately small: a handshake
// that negotiates the engine profile, knob setting and dataset class, a
// Query frame carrying one SQL statement (or a \qN TPC-H shorthand), and a
// response pair — ResultSet followed by EnergyReport — so every answer
// carries its own Eq. 1 Active-energy breakdown, the paper's §2
// decomposition made per-request.
//
// Framing:
//
//	uint32 length (big endian, of everything that follows)
//	byte   frame type
//	...    type-specific payload
//
// Strings are uint32-length-prefixed UTF-8. Values are one type byte
// followed by a fixed 8-byte integer/float payload (none for NULL, a
// length-prefixed string for TypeStr). Decoding is defensive: every read is
// bounds-checked against the frame and a frame may not exceed MaxFrame, so
// a malicious or fuzzed peer cannot force large allocations or panics.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"energydb/internal/db/value"
)

// ProtocolVersion is the wire protocol revision. The server rejects
// handshakes with a different major version.
const ProtocolVersion = 1

// MaxFrame bounds a single frame (length prefix value). Result sets larger
// than this must be paginated by the query (LIMIT); the bound protects both
// sides from unbounded allocation on a corrupt length prefix.
const MaxFrame = 32 << 20

// Type tags a frame.
type Type byte

// Frame types.
const (
	TypeHello        Type = 0x01 // client → server: version + engine negotiation
	TypeHelloAck     Type = 0x02 // server → client: accepted session parameters
	TypeQuery        Type = 0x03 // client → server: one statement
	TypeResultSet    Type = 0x04 // server → client: columns + rows
	TypeEnergyReport Type = 0x05 // server → client: per-query energy breakdown
	TypeError        Type = 0x06 // server → client: statement or protocol error
	TypeQuit         Type = 0x07 // client → server: orderly goodbye
	TypeStats        Type = 0x08 // client → server: request a server stats snapshot
	TypeStatsReply   Type = 0x09 // server → client: JSON stats snapshot
	TypeTxnCtl       Type = 0x0A // client → server: BEGIN / COMMIT / ROLLBACK
	TypeTxnAck       Type = 0x0B // server → client: transaction state after a TxnCtl
)

// frames is the one list of frame types, indexed by Type: Type.String and
// Decode both read it, so a type has a name exactly when peers can parse it.
var frames = [256]struct {
	name   string
	client bool // a client sends it (ReadClient)
	new    func() Frame
}{
	TypeHello:        {"Hello", true, func() Frame { return &Hello{} }},
	TypeHelloAck:     {"HelloAck", false, func() Frame { return &HelloAck{} }},
	TypeQuery:        {"Query", true, func() Frame { return &Query{} }},
	TypeResultSet:    {"ResultSet", false, func() Frame { return &ResultSet{} }},
	TypeEnergyReport: {"EnergyReport", false, func() Frame { return &EnergyReport{} }},
	TypeError:        {"Error", false, func() Frame { return &Error{} }},
	TypeQuit:         {"Quit", true, func() Frame { return &Quit{} }},
	TypeStats:        {"Stats", true, func() Frame { return &Stats{} }},
	TypeStatsReply:   {"StatsReply", false, func() Frame { return &StatsReply{} }},
	TypeTxnCtl:       {"TxnCtl", true, func() Frame { return &TxnCtl{} }},
	TypeTxnAck:       {"TxnAck", false, func() Frame { return &TxnAck{} }},
}

// String names the frame type.
func (t Type) String() string {
	if frames[t].new == nil {
		return fmt.Sprintf("Type(0x%02x)", byte(t))
	}
	return frames[t].name
}

// Frame is one protocol message.
type Frame interface {
	// FrameType tags the message on the wire.
	FrameType() Type
	// fields is the frame's layout: its fields once, in wire order. Encode
	// and Decode both run it, so the two directions cannot disagree.
	fields(c *codec)
}

// Hello opens a session: the client proposes the engine profile, knob
// setting and dataset class it wants to query.
type Hello struct {
	Version byte
	Engine  string // "postgresql", "sqlite", "mysql"
	Setting string // "small", "baseline", "large"
	Class   string // "10MB", "100MB", "500MB", "1GB"
}

// FrameType implements Frame.
func (*Hello) FrameType() Type { return TypeHello }

func (h *Hello) fields(c *codec) {
	c.byte(&h.Version)
	c.str(&h.Engine)
	c.str(&h.Setting)
	c.str(&h.Class)
}

// HelloAck confirms the session: the server echoes the resolved parameters
// and identifies itself.
type HelloAck struct {
	Banner    string // server identification line
	Engine    string // resolved profile name
	Setting   string
	Class     string
	Tables    uint32 // tables loaded in the engine
	SessionID uint64 // server-assigned session identity
}

// FrameType implements Frame.
func (*HelloAck) FrameType() Type { return TypeHelloAck }

func (h *HelloAck) fields(c *codec) {
	c.str(&h.Banner)
	c.str(&h.Engine)
	c.str(&h.Setting)
	c.str(&h.Class)
	c.u32(&h.Tables)
	c.u64(&h.SessionID)
}

// Query carries one statement: either SQL for the engine's parser, or the
// shell shorthand `\qN`, which stands for the SQL text of TPC-H query N.
type Query struct {
	Text string
}

// FrameType implements Frame.
func (*Query) FrameType() Type { return TypeQuery }

func (q *Query) fields(c *codec) { c.str(&q.Text) }

// ResultSet returns the statement's rows. Rows were collected with result
// display disabled inside the measured region (the paper's methodology);
// transfer happens outside it.
type ResultSet struct {
	Cols []string
	Rows []value.Row
}

// FrameType implements Frame.
func (*ResultSet) FrameType() Type { return TypeResultSet }

func (r *ResultSet) fields(c *codec) {
	list(c, &r.Cols, (*codec).str)
	list(c, &r.Rows, func(c *codec, row *value.Row) { c.row(row, len(r.Cols)) })
}

// EnergyReport is the per-query Eq. 1 breakdown plus the session ledger
// totals, so a client can track its own cumulative attribution without
// extra round trips. Joules is indexed by core.Component order
// (E_L1D, E_Reg2L1D, E_L2, E_L3, E_mem, E_pf, E_stall, E_other).
type EnergyReport struct {
	Name        string // statement label
	Rows        uint64 // result row count
	EActive     float64
	EBusy       float64
	EBackground float64
	Seconds     float64
	Joules      [8]float64

	// Session ledger totals after this statement.
	SessionQueries uint64
	SessionActive  float64
	SessionSeconds float64
}

// FrameType implements Frame.
func (*EnergyReport) FrameType() Type { return TypeEnergyReport }

func (e *EnergyReport) fields(c *codec) {
	c.str(&e.Name)
	c.u64(&e.Rows)
	c.f64(&e.EActive)
	c.f64(&e.EBusy)
	c.f64(&e.EBackground)
	c.f64(&e.Seconds)
	for i := range e.Joules {
		c.f64(&e.Joules[i])
	}
	c.u64(&e.SessionQueries)
	c.f64(&e.SessionActive)
	c.f64(&e.SessionSeconds)
}

// TxnRolledBackSuffix ends an Error message when the statement's failure
// also rolled back the session's open transaction (a failed DML must never
// leave a torn transaction commitable). Clients watch for it to keep their
// local transaction state honest without a wire format change.
const TxnRolledBackSuffix = "(transaction rolled back)"

// Error reports a statement or protocol failure. The session stays open
// after a statement error; protocol errors close it.
type Error struct {
	Msg string
}

// FrameType implements Frame.
func (*Error) FrameType() Type { return TypeError }

func (e *Error) fields(c *codec) { c.str(&e.Msg) }

// Quit closes the session cleanly.
type Quit struct{}

// FrameType implements Frame.
func (*Quit) FrameType() Type { return TypeQuit }

func (*Quit) fields(*codec) {}

// Stats asks the server for an observability snapshot (the STATS command;
// dbshell's \stats). The reply is a StatsReply carrying StatsSnapshot JSON —
// the same registry the HTTP /metrics endpoint exposes, so remote clients do
// not need a scrape port.
type Stats struct{}

// FrameType implements Frame.
func (*Stats) FrameType() Type { return TypeStats }

func (*Stats) fields(*codec) {}

// StatsReply answers a Stats request with a JSON-encoded StatsSnapshot. JSON
// keeps the payload schema-evolvable (new metric families appear without a
// protocol revision) while the frame stays length-prefixed and bounded.
type StatsReply struct {
	JSON string
}

// FrameType implements Frame.
func (*StatsReply) FrameType() Type { return TypeStatsReply }

func (s *StatsReply) fields(c *codec) { c.str(&s.JSON) }

// Snapshot decodes the reply's payload.
func (s *StatsReply) Snapshot() (*StatsSnapshot, error) {
	var out StatsSnapshot
	if err := json.Unmarshal([]byte(s.JSON), &out); err != nil {
		return nil, fmt.Errorf("wire: bad StatsReply payload: %w", err)
	}
	return &out, nil
}

// TxnOp selects a transaction-control operation.
type TxnOp byte

// Transaction-control operations.
const (
	TxnBegin    TxnOp = 1
	TxnCommit   TxnOp = 2
	TxnRollback TxnOp = 3
)

// txnOps names the operations, indexed by TxnOp; an op without a name is
// not one.
var txnOps = [...]string{TxnBegin: "BEGIN", TxnCommit: "COMMIT", TxnRollback: "ROLLBACK"}

// String names the operation.
func (op TxnOp) String() string {
	if !op.valid() {
		return fmt.Sprintf("TxnOp(%d)", byte(op))
	}
	return txnOps[op]
}

func (op TxnOp) valid() bool { return int(op) < len(txnOps) && txnOps[op] != "" }

// TxnCtl controls the session's explicit transaction: BEGIN opens one
// (statements then read a pinned snapshot and write under its ID until it
// closes), COMMIT publishes it, ROLLBACK discards it. SQL BEGIN / COMMIT /
// ROLLBACK statements arriving as Query frames are handled identically;
// this frame lets clients drive transactions without string parsing.
type TxnCtl struct {
	Op TxnOp
}

// FrameType implements Frame.
func (*TxnCtl) FrameType() Type { return TypeTxnCtl }

func (t *TxnCtl) fields(c *codec) {
	c.byte((*byte)(&t.Op))
	if !t.Op.valid() {
		c.fail(fmt.Errorf("unknown txn op %d", byte(t.Op)))
	}
}

// TxnAck answers a TxnCtl: the session's transaction ID (0 when none is
// open) and whether a transaction is active after the operation.
type TxnAck struct {
	TxnID  uint64
	Active bool
}

// FrameType implements Frame.
func (*TxnAck) FrameType() Type { return TypeTxnAck }

func (t *TxnAck) fields(c *codec) {
	c.u64(&t.TxnID)
	c.bool(&t.Active)
}

// Write frames and sends one message.
func Write(w io.Writer, f Frame) error {
	data := Encode(f)
	if len(data) > MaxFrame {
		return fmt.Errorf("wire: frame %v exceeds MaxFrame (%d > %d)", f.FrameType(), len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// UnexpectedFrame is a frame a server refused on its type byte: a type only
// servers send, so its body was never decoded.
type UnexpectedFrame struct{ Type Type }

func (e *UnexpectedFrame) Error() string { return fmt.Sprintf("unexpected %v frame", e.Type) }

// Read receives one message.
func Read(r io.Reader) (Frame, error) { return read(r, false) }

// ReadClient receives one message on the server's side of a connection: a
// frame of a type that clients never send fails with *UnexpectedFrame on its
// type byte, before anything is decoded or allocated for its body.
func ReadClient(r io.Reader) (Frame, error) { return read(r, true) }

func read(r io.Reader, client bool) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	if client && n > 0 && frames[data[0]].new != nil && !frames[data[0]].client {
		return nil, &UnexpectedFrame{Type(data[0])}
	}
	return Decode(data)
}

// Decode parses one frame body (type byte + payload, without the length
// prefix). It never panics on malformed input.
func Decode(data []byte) (Frame, error) {
	if len(data) == 0 {
		return nil, errors.New("wire: empty frame")
	}
	e := frames[data[0]]
	if e.new == nil {
		return nil, fmt.Errorf("wire: unknown frame type 0x%02x", data[0])
	}
	f := e.new()
	c := &codec{data: data, off: 1, decoding: true}
	f.fields(c)
	if c.err != nil {
		return nil, fmt.Errorf("wire: bad %v frame: %w", f.FrameType(), c.err)
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v frame", len(data)-c.off, f.FrameType())
	}
	return f, nil
}

// Encode serializes one frame body (type byte + payload, without the length
// prefix) — the inverse of Decode.
func Encode(f Frame) []byte {
	c := &codec{data: append([]byte(nil), byte(f.FrameType()))}
	f.fields(c)
	return c.data
}

// codec runs a frame's layout in one direction. Encoding, each field is
// appended to data. Decoding, each field is read from data at off into
// place, bounds-checked; the first failure is kept in err and every later
// read is skipped, so a layout lists its fields without checking any.
type codec struct {
	data     []byte
	off      int
	decoding bool
	err      error
}

var errShort = errors.New("truncated payload")

// fail records a decoding failure unless an earlier one is already kept.
func (c *codec) fail(err error) {
	if c.decoding && c.err == nil {
		c.err = err
	}
}

// take returns the next n bytes of a decoding, or nil once it has failed.
func (c *codec) take(n int) []byte {
	if n > len(c.data)-c.off {
		c.fail(errShort)
	}
	if c.err != nil {
		return nil
	}
	c.off += n
	return c.data[c.off-n : c.off]
}

func (c *codec) byte(v *byte) {
	if !c.decoding {
		c.data = append(c.data, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

func (c *codec) u32(v *uint32) {
	if !c.decoding {
		c.data = binary.BigEndian.AppendUint32(c.data, *v)
	} else if p := c.take(4); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.decoding {
		c.data = binary.BigEndian.AppendUint64(c.data, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

// i64, f64 and bool carry their field as a u64 or a byte; only a decoding
// writes the field back, so encoding never stores to the frame.
func (c *codec) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	if c.decoding {
		*v = int64(u)
	}
}

func (c *codec) f64(v *float64) {
	u := math.Float64bits(*v)
	c.u64(&u)
	if c.decoding {
		*v = math.Float64frombits(u)
	}
}

func (c *codec) bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	c.byte(&b)
	if c.decoding {
		*v = b != 0
	}
}

// str carries a uint32 byte length, then the bytes.
func (c *codec) str(s *string) {
	n := uint32(len(*s))
	c.u32(&n)
	if !c.decoding {
		c.data = append(c.data, *s...)
	} else if p := c.take(int(n)); p != nil {
		*s = string(p)
	}
}

// value carries a type byte, then that type's payload: none for NULL, a
// 64-bit word for integers, dates and floats, a string for TypeStr.
func (c *codec) value(v *value.Value) {
	c.byte((*byte)(&v.T))
	switch v.T {
	case value.TypeNull:
	case value.TypeInt, value.TypeDate:
		c.i64(&v.I)
	case value.TypeFloat:
		c.f64(&v.F)
	case value.TypeStr:
		c.str(&v.S)
	default:
		c.fail(fmt.Errorf("unknown value type 0x%02x", byte(v.T)))
	}
}

// row carries one row as a list of values. Decoding, a row must hold exactly
// want values, one per column; another count fails before the row is
// allocated.
func (c *codec) row(row *value.Row, want int) {
	if c.decoding && c.err == nil && len(c.data)-c.off >= 4 {
		if n := binary.BigEndian.Uint32(c.data[c.off:]); int64(n) != int64(want) {
			c.fail(fmt.Errorf("row of %d values for %d columns", n, want))
			return
		}
	}
	list(c, row, (*codec).value)
}

// list carries a uint32 count, then each element. Decoding, a count above
// the bytes left fails before anything is allocated: every element costs at
// least one byte on the wire, so a corrupt count cannot force an allocation
// larger than the payload could encode.
func list[S ~[]E, E any](c *codec, s *S, elem func(*codec, *E)) {
	n := uint32(len(*s))
	c.u32(&n)
	if c.decoding && n > 0 {
		if int64(n) > int64(len(c.data)-c.off) {
			c.fail(errShort)
			return
		}
		*s = make(S, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}
