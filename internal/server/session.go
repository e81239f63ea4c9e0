package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/obs"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

// session is one client connection: a statement pipeline over the negotiated
// engine view on its sticky worker, an energy ledger, and a frame loop. The
// connection goroutine owns conn and the buffered reader/writer exclusively;
// everything machine-side happens in jobs it runs holding its worker's lane
// (see the package comment).
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	w    *bufio.Writer
	wk   *worker

	// pipe runs the session's statements (internal/db/stmt) and holds its
	// open transaction. Engines are cached per worker and shared by its
	// sessions; the pipeline binds this session's snapshot per statement.
	// It is called only inside worker jobs, which run on the connection
	// goroutine itself, so its reads of InTxn never race them.
	pipe *stmt.Session

	ledger Ledger
}

// armRead applies the per-frame read deadline, if configured.
func (s *session) armRead() {
	if d := s.srv.cfg.ReadTimeout; d > 0 {
		s.conn.SetReadDeadline(time.Now().Add(d))
	}
}

func (s *session) run() {
	defer s.srv.dropSession(s)
	defer s.conn.Close()
	r := bufio.NewReader(s.conn)
	s.w = bufio.NewWriter(s.conn)

	if err := s.handshake(r); err != nil {
		s.srv.obs.errorClass("protocol")
		s.srv.cfg.Logf("session %d: handshake: %v", s.id, err)
		return
	}
	s.srv.cfg.Logf("session %d: connected from %s (worker %d)",
		s.id, s.conn.RemoteAddr(), s.wk.id)
	// A transaction left open by a dropped connection must not pin the
	// snapshot horizon (or hold first-updater write claims) forever.
	defer func() {
		if _, open := s.pipe.InTxn(); open {
			s.txn(wire.TxnRollback)
		}
	}()

	for {
		s.armRead()
		f, err := wire.ReadClient(r)
		var unexpected *wire.UnexpectedFrame
		if errors.As(err, &unexpected) {
			s.unexpected(unexpected.Type)
			return
		}
		if err != nil {
			s.srv.cfg.Logf("session %d: closed (%v)", s.id, err)
			return
		}
		switch f := f.(type) {
		case *wire.Quit:
			s.srv.cfg.Logf("session %d: quit after %d queries", s.id, s.ledger.Totals().Queries)
			return
		case *wire.Query:
			if err := s.serveQuery(f.Text); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		case *wire.TxnCtl:
			if terr := s.txn(f.Op); terr != nil {
				s.srv.obs.statementError("txn")
				if err := s.send(&wire.Error{Msg: terr.Error()}); err != nil {
					return
				}
				break
			}
			id, active := s.pipe.InTxn()
			if err := s.send(&wire.TxnAck{TxnID: id, Active: active}); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		case *wire.Stats:
			reply, rerr := s.srv.Stats().Reply()
			if rerr != nil {
				if err := s.send(&wire.Error{Msg: "stats: " + rerr.Error()}); err != nil {
					return
				}
				break
			}
			if err := s.send(reply); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		default:
			s.unexpected(f.FrameType())
			return
		}
	}
}

// unexpected answers a frame the session does not take at this point, a
// protocol error that closes the session.
func (s *session) unexpected(t wire.Type) {
	s.srv.obs.errorClass("protocol")
	s.send(&wire.Error{Msg: (&wire.UnexpectedFrame{Type: t}).Error()})
}

// handshake negotiates the session engine: it resolves (or waits for) the
// shared table store on the connection goroutine — so a first-session TPC-H
// load never stalls a worker — then attaches this session's worker view.
func (s *session) handshake(r *bufio.Reader) error {
	s.armRead()
	f, err := wire.ReadClient(r)
	var unexpected *wire.UnexpectedFrame
	if errors.As(err, &unexpected) {
		s.send(&wire.Error{Msg: fmt.Sprintf("expected Hello, got %v", unexpected.Type)})
		return fmt.Errorf("expected Hello, got %v", unexpected.Type)
	}
	if err != nil {
		return err
	}
	hello, ok := f.(*wire.Hello)
	if !ok {
		s.send(&wire.Error{Msg: fmt.Sprintf("expected Hello, got %v", f.FrameType())})
		return fmt.Errorf("expected Hello, got %v", f.FrameType())
	}
	if hello.Version != wire.ProtocolVersion {
		s.send(&wire.Error{Msg: fmt.Sprintf("unsupported protocol version %d (want %d)", hello.Version, wire.ProtocolVersion)})
		return fmt.Errorf("unsupported protocol version %d", hello.Version)
	}
	kind, err := engine.ParseKind(defaultStr(hello.Engine, "sqlite"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	setting, err := engine.ParseSetting(defaultStr(hello.Setting, "baseline"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	class, err := tpch.ParseClass(defaultStr(hello.Class, "10MB"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	key := engineKey{kind: kind, setting: setting, class: class}
	sh := s.srv.sharedStore(key)
	s.wk = s.srv.assign()
	var eng *engine.Engine
	if err := s.wk.submit(func() {
		eng = s.wk.engine(key, sh)
	}); err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	s.pipe = &stmt.Session{Eng: eng, Prof: s.wk.prof, Retire: s.retire, Timeout: s.srv.cfg.StmtTimeout}
	return s.send(&wire.HelloAck{
		Banner:    Banner,
		Engine:    kind.String(),
		Setting:   setting.String(),
		Class:     class.String(),
		Tables:    uint32(eng.Tables()),
		SessionID: s.id,
	})
}

// serveQuery runs one statement through the pipeline on the session's worker
// and answers with ResultSet + EnergyReport, flushed once (or Error).
// Statement failures — including statement timeouts — keep the session
// open; only transport failures propagate.
func (s *session) serveQuery(text string) error {
	s.srv.obs.inFlight.Add(1)
	defer s.srv.obs.inFlight.Add(-1)
	st, err := stmt.Parse(text)
	var res stmt.Result
	if err == nil {
		res, err = s.exec(func() (stmt.Result, error) { return s.pipe.Exec(st) })
	}
	if err != nil {
		class := "exec" // the worker refused the job
		var se *stmt.Error
		if errors.As(err, &se) {
			class = se.Class
		}
		s.srv.obs.statementError(class)
		return s.send(&wire.Error{Msg: err.Error()})
	}
	t := s.ledger.Totals()
	b := res.Energy
	rep := &wire.EnergyReport{
		Name:        res.Name,
		Rows:        uint64(len(res.Rows)),
		EActive:     b.EActive,
		EBusy:       b.EBusy,
		EBackground: b.EBackground,
		Seconds:     b.Seconds,

		SessionQueries: t.Queries,
		SessionActive:  t.EActive,
		SessionSeconds: t.Seconds,
	}
	for i := range rep.Joules {
		rep.Joules[i] = b.Joules[i]
	}
	if err := s.send(&wire.ResultSet{Cols: res.Cols, Rows: res.Rows}, rep); err != nil {
		// An oversized result set fails before any bytes reach the writer;
		// downgrade to a statement error and keep the session alive.
		if s.w.Buffered() == 0 {
			return s.send(&wire.Error{Msg: err.Error()})
		}
		return err
	}
	return nil
}

// exec runs one pipeline call as one job on the session's worker. The
// pipeline retires every record before the call returns, so retirement is
// part of that same job: Server.Close waits for the running job to finish,
// so after Close every executed statement is fully accounted — a concurrent
// Server.Close can never observe a statement that ran but is not yet booked,
// and the session ledgers partition Server.Totals exactly at rest.
func (s *session) exec(call func() (stmt.Result, error)) (res stmt.Result, err error) {
	if submitErr := s.wk.submit(func() { res, err = call() }); submitErr != nil {
		return res, submitErr
	}
	return res, err
}

// txn runs one transaction control on the session's worker.
func (s *session) txn(op wire.TxnOp) error {
	_, err := s.exec(func() (stmt.Result, error) { return s.pipe.Txn(op) })
	return err
}

// retire is the pipeline's sink: it books one record into the session ledger
// and the server ledger, and nowhere else. An OK record is a retired
// statement: the ledger adds, the statement count and histograms, the
// query-log entry and the optional governor tick. Any other record is a
// failed statement's measured energy: the joules were really spent, so they
// must reach both ledgers (the session ledgers partition Server.Totals
// exactly) even though the statement never counts toward Queries. It MUST
// run holding the worker's lane.
func (s *session) retire(r stmt.Record) {
	if !r.OK {
		if r.B.EActive != 0 || r.B.Seconds != 0 {
			s.ledger.AddEnergy(r.B)
			s.srv.ledger.AddEnergy(r.B)
		}
		return
	}
	s.ledger.Add(r.B)
	s.srv.ledger.Add(r.B)
	s.srv.obs.observeStatement(r)
	s.srv.obs.qlog.Record(obs.QueryLogEntry{
		Session:     s.id,
		Name:        r.Name,
		Text:        r.Text,
		Plan:        r.Plan,
		Rows:        r.Rows,
		WallSeconds: r.Wall,
		SimSeconds:  r.B.Seconds,
		EActive:     r.B.EActive,
	})
	s.wk.tickGovernor()
}

// send writes frames into the connection's buffer and flushes once, so a
// reply that fits the buffer leaves in one write.
func (s *session) send(fs ...wire.Frame) error {
	if d := s.srv.cfg.WriteTimeout; d > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(d))
	}
	for _, f := range fs {
		if err := wire.Write(s.w, f); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
