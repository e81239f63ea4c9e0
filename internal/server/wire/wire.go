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
	name string
	new  func() Frame
}{
	TypeHello:        {"Hello", func() Frame { return &Hello{} }},
	TypeHelloAck:     {"HelloAck", func() Frame { return &HelloAck{} }},
	TypeQuery:        {"Query", func() Frame { return &Query{} }},
	TypeResultSet:    {"ResultSet", func() Frame { return &ResultSet{} }},
	TypeEnergyReport: {"EnergyReport", func() Frame { return &EnergyReport{} }},
	TypeError:        {"Error", func() Frame { return &Error{} }},
	TypeQuit:         {"Quit", func() Frame { return &Quit{} }},
	TypeStats:        {"Stats", func() Frame { return &Stats{} }},
	TypeStatsReply:   {"StatsReply", func() Frame { return &StatsReply{} }},
	TypeTxnCtl:       {"TxnCtl", func() Frame { return &TxnCtl{} }},
	TypeTxnAck:       {"TxnAck", func() Frame { return &TxnAck{} }},
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
	encode(b *buf)
	decode(b *buf) error
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

func (h *Hello) encode(b *buf) {
	b.putByte(h.Version)
	b.putString(h.Engine)
	b.putString(h.Setting)
	b.putString(h.Class)
}

func (h *Hello) decode(b *buf) (err error) {
	if h.Version, err = b.getByte(); err != nil {
		return err
	}
	if h.Engine, err = b.getString(); err != nil {
		return err
	}
	if h.Setting, err = b.getString(); err != nil {
		return err
	}
	h.Class, err = b.getString()
	return err
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

func (h *HelloAck) encode(b *buf) {
	b.putString(h.Banner)
	b.putString(h.Engine)
	b.putString(h.Setting)
	b.putString(h.Class)
	b.putU32(h.Tables)
	b.putU64(h.SessionID)
}

func (h *HelloAck) decode(b *buf) (err error) {
	if h.Banner, err = b.getString(); err != nil {
		return err
	}
	if h.Engine, err = b.getString(); err != nil {
		return err
	}
	if h.Setting, err = b.getString(); err != nil {
		return err
	}
	if h.Class, err = b.getString(); err != nil {
		return err
	}
	if h.Tables, err = b.getU32(); err != nil {
		return err
	}
	h.SessionID, err = b.getU64()
	return err
}

// Query carries one statement: either SQL for the engine's parser, or the
// shell shorthand `\qN` to run TPC-H query N as a built plan.
type Query struct {
	Text string
}

// FrameType implements Frame.
func (*Query) FrameType() Type { return TypeQuery }

func (q *Query) encode(b *buf)       { b.putString(q.Text) }
func (q *Query) decode(b *buf) error { var err error; q.Text, err = b.getString(); return err }

// ResultSet returns the statement's rows. Rows were collected with result
// display disabled inside the measured region (the paper's methodology);
// transfer happens outside it.
type ResultSet struct {
	Cols []string
	Rows []value.Row
}

// FrameType implements Frame.
func (*ResultSet) FrameType() Type { return TypeResultSet }

func (r *ResultSet) encode(b *buf) {
	b.putU32(uint32(len(r.Cols)))
	for _, c := range r.Cols {
		b.putString(c)
	}
	b.putU32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		b.putU32(uint32(len(row)))
		for _, v := range row {
			b.putValue(v)
		}
	}
}

func (r *ResultSet) decode(b *buf) error {
	ncols, err := b.getU32()
	if err != nil {
		return err
	}
	r.Cols, err = getSlice(b, ncols, (*buf).getString)
	if err != nil {
		return err
	}
	nrows, err := b.getU32()
	if err != nil {
		return err
	}
	r.Rows, err = getSlice(b, nrows, func(b *buf) (value.Row, error) {
		width, err := b.getU32()
		if err != nil {
			return nil, err
		}
		return getSlice(b, width, (*buf).getValue)
	})
	return err
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

func (e *EnergyReport) encode(b *buf) {
	b.putString(e.Name)
	b.putU64(e.Rows)
	b.putF64(e.EActive)
	b.putF64(e.EBusy)
	b.putF64(e.EBackground)
	b.putF64(e.Seconds)
	for _, j := range e.Joules {
		b.putF64(j)
	}
	b.putU64(e.SessionQueries)
	b.putF64(e.SessionActive)
	b.putF64(e.SessionSeconds)
}

func (e *EnergyReport) decode(b *buf) (err error) {
	if e.Name, err = b.getString(); err != nil {
		return err
	}
	if e.Rows, err = b.getU64(); err != nil {
		return err
	}
	fields := []*float64{&e.EActive, &e.EBusy, &e.EBackground, &e.Seconds}
	for i := range e.Joules {
		fields = append(fields, &e.Joules[i])
	}
	for _, f := range fields {
		if *f, err = b.getF64(); err != nil {
			return err
		}
	}
	if e.SessionQueries, err = b.getU64(); err != nil {
		return err
	}
	if e.SessionActive, err = b.getF64(); err != nil {
		return err
	}
	e.SessionSeconds, err = b.getF64()
	return err
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

func (e *Error) encode(b *buf)       { b.putString(e.Msg) }
func (e *Error) decode(b *buf) error { var err error; e.Msg, err = b.getString(); return err }

// Quit closes the session cleanly.
type Quit struct{}

// FrameType implements Frame.
func (*Quit) FrameType() Type { return TypeQuit }

func (*Quit) encode(*buf)       {}
func (*Quit) decode(*buf) error { return nil }

// Stats asks the server for an observability snapshot (the STATS command;
// dbshell's \stats). The reply is a StatsReply carrying StatsSnapshot JSON —
// the same registry the HTTP /metrics endpoint exposes, so remote clients do
// not need a scrape port.
type Stats struct{}

// FrameType implements Frame.
func (*Stats) FrameType() Type { return TypeStats }

func (*Stats) encode(*buf)       {}
func (*Stats) decode(*buf) error { return nil }

// StatsReply answers a Stats request with a JSON-encoded StatsSnapshot. JSON
// keeps the payload schema-evolvable (new metric families appear without a
// protocol revision) while the frame stays length-prefixed and bounded.
type StatsReply struct {
	JSON string
}

// FrameType implements Frame.
func (*StatsReply) FrameType() Type { return TypeStatsReply }

func (s *StatsReply) encode(b *buf)       { b.putString(s.JSON) }
func (s *StatsReply) decode(b *buf) error { var err error; s.JSON, err = b.getString(); return err }

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
	if int(op) >= len(txnOps) || txnOps[op] == "" {
		return fmt.Sprintf("TxnOp(%d)", byte(op))
	}
	return txnOps[op]
}

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

func (t *TxnCtl) encode(b *buf) { b.putByte(byte(t.Op)) }
func (t *TxnCtl) decode(b *buf) error {
	v, err := b.getByte()
	if err != nil {
		return err
	}
	if int(v) >= len(txnOps) || txnOps[v] == "" {
		return fmt.Errorf("unknown txn op %d", v)
	}
	t.Op = TxnOp(v)
	return nil
}

// TxnAck answers a TxnCtl: the session's transaction ID (0 when none is
// open) and whether a transaction is active after the operation.
type TxnAck struct {
	TxnID  uint64
	Active bool
}

// FrameType implements Frame.
func (*TxnAck) FrameType() Type { return TypeTxnAck }

func (t *TxnAck) encode(b *buf) {
	b.putU64(t.TxnID)
	active := byte(0)
	if t.Active {
		active = 1
	}
	b.putByte(active)
}

func (t *TxnAck) decode(b *buf) (err error) {
	if t.TxnID, err = b.getU64(); err != nil {
		return err
	}
	v, err := b.getByte()
	if err != nil {
		return err
	}
	t.Active = v != 0
	return nil
}

// Write frames and sends one message.
func Write(w io.Writer, f Frame) error {
	b := &buf{}
	b.putByte(byte(f.FrameType()))
	f.encode(b)
	if len(b.data) > MaxFrame {
		return fmt.Errorf("wire: frame %v exceeds MaxFrame (%d > %d)", f.FrameType(), len(b.data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b.data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b.data)
	return err
}

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Read receives one message.
func Read(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if n < 1 {
		return nil, errors.New("wire: empty frame")
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses one frame body (type byte + payload, without the length
// prefix). It never panics on malformed input.
func Decode(data []byte) (Frame, error) {
	b := &buf{data: data}
	t, err := b.getByte()
	if err != nil {
		return nil, err
	}
	if frames[t].new == nil {
		return nil, fmt.Errorf("wire: unknown frame type 0x%02x", t)
	}
	f := frames[t].new()
	if err := f.decode(b); err != nil {
		return nil, fmt.Errorf("wire: bad %v frame: %w", f.FrameType(), err)
	}
	if b.off != len(b.data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v frame", len(b.data)-b.off, f.FrameType())
	}
	return f, nil
}

// Encode serializes one frame body (type byte + payload, without the length
// prefix) — the inverse of Decode, used by tests and fuzzing.
func Encode(f Frame) []byte {
	b := &buf{}
	b.putByte(byte(f.FrameType()))
	f.encode(b)
	return b.data
}

// buf is a bounds-checked serialization cursor.
type buf struct {
	data []byte
	off  int
}

var errShort = errors.New("truncated payload")

func (b *buf) putByte(v byte) { b.data = append(b.data, v) }

func (b *buf) putU32(v uint32) {
	b.data = binary.BigEndian.AppendUint32(b.data, v)
}

func (b *buf) putU64(v uint64) {
	b.data = binary.BigEndian.AppendUint64(b.data, v)
}

func (b *buf) putF64(v float64) { b.putU64(math.Float64bits(v)) }

func (b *buf) putString(s string) {
	b.putU32(uint32(len(s)))
	b.data = append(b.data, s...)
}

func (b *buf) putValue(v value.Value) {
	b.putByte(byte(v.T))
	switch v.T {
	case value.TypeNull:
	case value.TypeInt, value.TypeDate:
		b.putU64(uint64(v.I))
	case value.TypeFloat:
		b.putF64(v.F)
	case value.TypeStr:
		b.putString(v.S)
	}
}

func (b *buf) getByte() (byte, error) {
	if b.off+1 > len(b.data) {
		return 0, errShort
	}
	v := b.data[b.off]
	b.off++
	return v, nil
}

func (b *buf) getU32() (uint32, error) {
	if b.off+4 > len(b.data) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v, nil
}

func (b *buf) getU64() (uint64, error) {
	if b.off+8 > len(b.data) {
		return 0, errShort
	}
	v := binary.BigEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v, nil
}

func (b *buf) getF64() (float64, error) {
	v, err := b.getU64()
	return math.Float64frombits(v), err
}

func (b *buf) getString() (string, error) {
	n, err := b.getU32()
	if err != nil {
		return "", err
	}
	if int(n) > len(b.data)-b.off {
		return "", errShort
	}
	s := string(b.data[b.off : b.off+int(n)])
	b.off += int(n)
	return s, nil
}

func (b *buf) getValue() (value.Value, error) {
	t, err := b.getByte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Type(t) {
	case value.TypeNull:
		return value.Null(), nil
	case value.TypeInt:
		v, err := b.getU64()
		return value.Int(int64(v)), err
	case value.TypeDate:
		v, err := b.getU64()
		return value.Date(int64(v)), err
	case value.TypeFloat:
		v, err := b.getF64()
		return value.Float(v), err
	case value.TypeStr:
		s, err := b.getString()
		return value.Str(s), err
	default:
		return value.Value{}, fmt.Errorf("unknown value type 0x%02x", t)
	}
}

// getSlice decodes n elements, capping the upfront allocation so a corrupt
// count cannot allocate more than the remaining payload could encode.
func getSlice[T any](b *buf, n uint32, get func(*buf) (T, error)) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	remaining := len(b.data) - b.off
	if int64(n) > int64(remaining) {
		// Every element costs at least one byte on the wire.
		return nil, errShort
	}
	out := make([]T, 0, n)
	for i := uint32(0); i < n; i++ {
		v, err := get(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
