// Command dbshell is an interactive SQL shell over a simulated database
// engine with TPC-H data loaded, printing a per-query energy breakdown
// after every statement — the paper's methodology at a prompt.
//
// By default the shell simulates locally. With -connect (or the \connect
// meta command) it becomes a remote client of a running energyd server,
// and the breakdown printed after each statement is the server-attributed
// per-session energy report.
//
// Usage:
//
//	dbshell -db sqlite -class 10MB
//	> SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag
//	> \tables
//	> \quit
//
//	dbshell -connect localhost:7683 -db mysql -class 100MB
//	> \q6
//	> \disconnect
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/db/value"
	"energydb/internal/obs"
	"energydb/internal/rapl"
	"energydb/internal/server/client"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

func main() {
	var (
		dbFlag    = flag.String("db", "sqlite", "engine profile: postgresql, sqlite, mysql")
		classFlag = flag.String("class", "10MB", "dataset class: 10MB, 100MB, 500MB, 1GB")
		setting   = flag.String("setting", "baseline", "knobs: small, baseline, large")
		maxRows   = flag.Int("rows", 20, "max rows displayed per query")
		connect   = flag.String("connect", "", "connect to a running energyd at host:port instead of simulating locally")
	)
	flag.Parse()

	kind, err := engine.ParseKind(*dbFlag)
	if err != nil {
		fatal(err)
	}
	class, err := tpch.ParseClass(*classFlag)
	if err != nil {
		fatal(err)
	}
	set, err := engine.ParseSetting(*setting)
	if err != nil {
		fatal(err)
	}

	sh := &shell{
		kind:    kind,
		class:   class,
		setting: set,
		maxRows: *maxRows,
	}
	if *connect != "" {
		if err := sh.dial(*connect); err != nil {
			fatal(err)
		}
	} else if err := sh.setupLocal(); err != nil {
		fatal(err)
	}
	texts := tpch.SQLQueries()
	approx := 0
	for _, q := range texts {
		if q.Note != "" {
			approx++
		}
	}
	fmt.Printf(`Ready. End statements with a newline; EXPLAIN [ENERGY] <select|update|delete> shows the optimizer's plan (ENERGY: runs it and shows the measured per-operator attribution); INSERT/UPDATE/DELETE write under snapshot isolation; \begin \commit \rollback (or SQL BEGIN/COMMIT/ROLLBACK) control transactions; \q<N> runs the SQL text of TPC-H query N (%d of the %d texts approximate their query where the grammar falls short; the shell says how); \tables lists tables; \connect <addr> goes remote; \stats shows server observability (remote); \quit exits.`+"\n", approx, len(texts))

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print(sh.prompt())
		if !in.Scan() {
			break
		}
		if !sh.dispatch(strings.TrimSpace(in.Text())) {
			return
		}
	}
	// A failed scan is either EOF (fine) or a real input error — an
	// oversized line, a broken pipe — which must not vanish silently.
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "dbshell: input error:", err)
		os.Exit(1)
	}
}

// shell holds either a local measurement stack or a remote energyd session
// (or both, when \connect follows local statements).
type shell struct {
	kind    engine.Kind
	class   tpch.SizeClass
	setting engine.Setting
	maxRows int

	// Local mode (lazily built): the statement pipeline energyd sessions
	// run, on an engine and profiler of the shell's own, and the breakdowns
	// of the regions the current statement completed, which are printed
	// after its answer.
	pipe *stmt.Session
	done []core.Breakdown

	// Remote mode.
	remote *client.Conn
}

// prompt marks an open transaction, locally or on the remote session.
func (sh *shell) prompt() string {
	inTxn := false
	switch {
	case sh.remote != nil:
		_, inTxn = sh.remote.InTxn()
	case sh.pipe != nil:
		_, inTxn = sh.pipe.InTxn()
	}
	if inTxn {
		return "(txn)> "
	}
	return "> "
}

// dispatch handles one input line; it returns false when the shell should
// exit.
func (sh *shell) dispatch(line string) bool {
	switch {
	case line == "":
		return true
	case line == `\quit` || line == `\q`:
		if sh.remote != nil {
			sh.remote.Close()
		}
		return false
	case strings.HasPrefix(line, `\connect`):
		arg := strings.TrimSpace(strings.TrimPrefix(line, `\connect`))
		if arg == "" {
			fmt.Println(`error: use \connect host:port`)
			return true
		}
		if err := sh.dial(arg); err != nil {
			fmt.Println("error:", err)
		}
		return true
	case line == `\disconnect`:
		if sh.remote == nil {
			fmt.Println("not connected")
			return true
		}
		sh.remote.Close()
		sh.remote = nil
		fmt.Println("disconnected; statements now simulate locally")
		return true
	case line == `\tables`:
		sh.tables()
		return true
	case line == `\stats`:
		sh.stats()
		return true
	case line == `\begin`:
		sh.txnCmd(wire.TxnBegin)
		return true
	case line == `\commit`:
		sh.txnCmd(wire.TxnCommit)
		return true
	case line == `\rollback`:
		sh.txnCmd(wire.TxnRollback)
		return true
	}
	if sh.remote != nil {
		sh.remoteQuery(line)
		return true
	}
	st, err := stmt.Parse(line)
	if err != nil {
		fmt.Println("error:", err)
		return true
	}
	if st.Note != "" {
		fmt.Println("approximates the query:", st.Note)
	}
	sh.local(func() (stmt.Result, error) { return sh.pipe.Exec(st) },
		func(res stmt.Result) { sh.printRows(res.Cols, res.Rows) })
	return true
}

// dial opens a remote session with the shell's engine parameters.
func (sh *shell) dial(addr string) error {
	conn, err := client.Dial(addr, client.Options{
		Engine:  sh.kind.String(),
		Setting: sh.setting.String(),
		Class:   sh.class.String(),
	})
	if err != nil {
		return err
	}
	if sh.remote != nil {
		sh.remote.Close()
	}
	sh.remote = conn
	ack := conn.Info()
	fmt.Printf("connected to %s: %s / %s knobs / TPC-H %s (%d tables), session %d\n",
		addr, ack.Engine, ack.Setting, ack.Class, ack.Tables, ack.SessionID)
	return nil
}

// setupLocal calibrates the machine and loads the dataset (once).
func (sh *shell) setupLocal() error {
	if sh.pipe != nil {
		return nil
	}
	fmt.Printf("Calibrating the i7-4790 energy model...\n")
	st, err := core.NewStack(cpusim.PStateMax, 42, rapl.DefaultNoise, 0.1, 0)
	if err != nil {
		return err
	}
	fmt.Printf("Loading TPC-H %s into the %v profile (%v knobs)...\n", sh.class, sh.kind, sh.setting)
	eng := engine.New(sh.kind, st.M, sh.setting)
	tpch.Setup(eng, sh.class)
	sh.pipe = &stmt.Session{Eng: eng, Prof: st.Profiler(), Retire: sh.retire}
	return nil
}

// retire is the local pipeline's sink: it keeps the breakdown of every region
// that ran to completion.
func (sh *shell) retire(r stmt.Record) {
	if r.OK {
		sh.done = append(sh.done, r.B)
	}
}

// local runs one pipeline call on the shell's own engine and shows what an
// energyd session would have answered, then the breakdown of every region
// that ran to completion (a failed write inside a transaction still shows
// what rolling it back cost).
func (sh *shell) local(call func() (stmt.Result, error), show func(stmt.Result)) {
	if err := sh.setupLocal(); err != nil {
		fmt.Println("error:", err)
		return
	}
	sh.done = sh.done[:0]
	res, err := call()
	if err != nil {
		fmt.Println("error:", err)
	} else {
		show(res)
	}
	for _, b := range sh.done {
		printBreakdown(b)
	}
}

// remoteQuery routes one statement (SQL or \qN) to the server and renders
// the rows plus the server-attributed energy report.
func (sh *shell) remoteQuery(line string) {
	res, err := sh.remote.Query(line)
	if err != nil {
		fmt.Println("error:", err)
		if _, ok := err.(*client.QueryError); !ok {
			// Transport failure: the session is gone.
			sh.remote.Close()
			sh.remote = nil
			fmt.Println("connection lost; statements now simulate locally")
		}
		return
	}
	sh.printRows(res.Cols, res.Rows)
	printRemoteBreakdown(res.Energy)
}

// txnCmd runs one transaction control, against the remote session or the
// local pipeline.
func (sh *shell) txnCmd(op wire.TxnOp) {
	if sh.remote != nil {
		var err error
		switch op {
		case wire.TxnBegin:
			var id uint64
			if id, err = sh.remote.Begin(); err == nil {
				fmt.Printf("BEGIN (txn %d)\n", id)
			}
		case wire.TxnCommit:
			if err = sh.remote.Commit(); err == nil {
				fmt.Println("COMMIT")
			}
		case wire.TxnRollback:
			if err = sh.remote.Rollback(); err == nil {
				fmt.Println("ROLLBACK")
			}
		}
		if err != nil {
			fmt.Println("error:", err)
		}
		return
	}
	sh.local(func() (stmt.Result, error) { return sh.pipe.Txn(op) },
		func(res stmt.Result) { fmt.Println(res.Rows[0][0]) })
}

// stats fetches and renders the server's observability snapshot (STATS):
// totals, the Eq. 1 component split, and the slow/hot query boards. Every
// number is a registry series, the same one /metrics exposes.
func (sh *shell) stats() {
	if sh.remote == nil {
		fmt.Println("not connected: \\stats shows a remote energyd's observability snapshot (use \\connect host:port)")
		return
	}
	s, err := sh.remote.Stats()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// v holds each series by family name, or by family name and its one
	// label's value ("energyd_heap_scans_total/forward").
	v := make(map[string]float64)
	var analyzes []string
	var pred obs.MetricSnapshot
	for _, f := range s.Metrics.Families {
		for _, m := range f.Metrics {
			key := f.Name
			if len(m.Labels) > 0 {
				key += "/" + m.Labels[0].Value
			}
			v[key] = m.Value
			switch {
			case f.Name == "energyd_analyze_total" && m.Value > 0:
				analyzes = append(analyzes, fmt.Sprintf("%s=%.0f", m.Labels[0].Value, m.Value))
			case f.Name == "energyd_prediction_error_ratio":
				pred = m
			}
		}
	}
	fmt.Printf("%s\n%.0f workers, %.0f sessions, engines: %s\n",
		s.Banner, v["energyd_workers"], v["energyd_sessions_active"], strings.Join(s.Engines, ", "))
	fmt.Printf("totals: %.0f queries, Eactive=%.4gJ Ebusy=%.4gJ Ebackground=%.4gJ over %.4gs sim time, L1D share %.1f%%\n",
		v["energyd_statements_total/ok"], v["energyd_active_joules_total"], v["energyd_busy_joules_total"],
		v["energyd_background_joules_total"], v["energyd_sim_seconds_total"], v["energyd_l1d_share"]*100)
	fmt.Printf("txns: %.0f active, %.0f started, %.0f committed, %.0f aborted\n",
		v["energyd_txns_active"], v["energyd_txns_started"], v["energyd_txns_committed"], v["energyd_txns_aborted"])
	fmt.Printf("reclaim: oldest snapshot %.0f commits behind, %.0f versions pruned, %.0f dead rows reaped (%.0f pending), log holds %.0f records after %.0f checkpoints, analyze: %s\n",
		v["energyd_oldest_snapshot_lag"], v["energyd_versions_pruned_total"],
		v["energyd_dead_rows_reaped_total"], v["energyd_dead_rows_pending"],
		v["energyd_wal_retained_records"], v["energyd_wal_checkpoints_total"], strings.Join(analyzes, " "))
	fmt.Printf("scans: %.0f vector heap scans front to back, %.0f back to front\n",
		v["energyd_heap_scans_total/forward"], v["energyd_heap_scans_total/reverse"])
	fmt.Printf("prediction: %d planned statements, predicted/measured E_active %.3g on average\n",
		pred.Count, pred.Sum/max(float64(pred.Count), 1))
	fmt.Print("components:")
	for _, c := range core.Components() {
		fmt.Printf(" %s=%.4gJ", c, v["energyd_energy_joules_total/"+c.String()])
	}
	fmt.Println()
	printBoard := func(title string, entries []obs.QueryLogEntry, metric func(obs.QueryLogEntry) string) {
		if len(entries) == 0 {
			return
		}
		fmt.Println(title)
		for i, e := range entries {
			fmt.Printf("  %d. [session %d] %s  %s (%d rows)\n", i+1, e.Session, metric(e), e.String(), e.Rows)
			if e.Plan != "" {
				fmt.Printf("     plan: %s\n", e.Plan)
			}
		}
	}
	printBoard("slowest (wall time):", s.Slowest, func(e obs.QueryLogEntry) string {
		return fmt.Sprintf("%.3gms", e.WallSeconds*1e3)
	})
	printBoard("hottest (E_active):", s.Hottest, func(e obs.QueryLogEntry) string {
		return fmt.Sprintf("%.4gJ", e.EActive)
	})
}

func (sh *shell) printRows(names []string, rows []value.Row) {
	fmt.Println(strings.Join(names, " | "))
	for i, r := range rows {
		if i >= sh.maxRows {
			fmt.Printf("... (%d more)\n", len(rows)-i)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

func (sh *shell) tables() {
	if sh.remote != nil {
		ack := sh.remote.Info()
		fmt.Printf("remote %s/%s: TPC-H %s, %d tables (region, nation, supplier, customer, part, partsupp, orders, lineitem)\n",
			ack.Engine, ack.Setting, ack.Class, ack.Tables)
		return
	}
	if err := sh.setupLocal(); err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		t, err := sh.pipe.Eng.Table(name)
		if err != nil {
			continue
		}
		fmt.Printf("  %-10s %8d rows  cols: %s\n", name, t.File.RowCount(), strings.Join(t.Schema().Names(), ", "))
	}
}

func printBreakdown(b core.Breakdown) {
	printShares(b.EActive, b.Shares(), "")
}

func printRemoteBreakdown(e wire.EnergyReport) {
	var shares [core.NumComponents]float64
	if e.EActive > 0 {
		for i := range shares {
			shares[i] = e.Joules[i] / e.EActive
		}
	}
	printShares(e.EActive, shares,
		fmt.Sprintf("session: %d queries, %.4gJ active\n", e.SessionQueries, e.SessionActive))
}

func printShares(eActive float64, s [core.NumComponents]float64, extra string) {
	fmt.Printf("energy: Eactive=%.4gJ  L1D=%.1f%% Reg2L1D=%.1f%% L2=%.1f%% L3=%.1f%% mem=%.1f%% pf=%.1f%% stall=%.1f%% other=%.1f%%\n%s\n",
		eActive,
		s[core.CompL1D]*100, s[core.CompReg2L1D]*100,
		s[core.CompL2]*100, s[core.CompL3]*100,
		s[core.CompMem]*100, s[core.CompPf]*100,
		s[core.CompStall]*100, s[core.CompOther]*100,
		extra)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbshell:", err)
	os.Exit(1)
}
