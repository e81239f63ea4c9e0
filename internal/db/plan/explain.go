package plan

import (
	"fmt"
	"strings"

	"energydb/internal/core"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Title names the operator for EXPLAIN output and meter labels.
func (n *Node) Title() string {
	switch n.Kind {
	case opSeqScan:
		return "SeqScan " + n.TableName
	case opIndexScan:
		return fmt.Sprintf("IndexScan %s (%s)", n.TableName, n.IdxCol)
	case opIndexJoin:
		return fmt.Sprintf("IndexJoin %s (%s = %s)", n.TableName, n.OuterColName, n.InnerColName)
	case opHashJoin:
		return fmt.Sprintf("HashJoin (%s = %s)", n.OuterColName, n.InnerColName)
	case opPrune:
		return fmt.Sprintf("Prune [%s]", strings.Join(n.schema.Names(), ", "))
	case opProject:
		return fmt.Sprintf("Project [%s]", strings.Join(n.Names, ", "))
	case opAggregate:
		return "HashAggregate"
	case opSort:
		return fmt.Sprintf("Sort [%s]", strings.Join(n.SortNames, ", "))
	case opLimit:
		return fmt.Sprintf("Limit %d", n.LimitN)
	case opWrite:
		if n.set == nil {
			return "Delete " + n.TableName
		}
		return "Update " + n.TableName
	default:
		return "?"
	}
}

// detail renders the node's mode/predicate/bound/key annotations.
func (n *Node) detail() string {
	var parts []string
	if vecEligibleKind(n.Kind) {
		parts = append(parts, "mode="+n.Mode.String())
	}
	if n.Kind == opIndexScan {
		lo, hi := "..", ".."
		if n.Lo != nil {
			lo = n.Lo.String()
		}
		if n.Hi != nil {
			hi = n.Hi.String()
		}
		parts = append(parts, fmt.Sprintf("range=[%s, %s]", lo, hi))
	}
	if n.Kind == opAggregate {
		parts = append(parts, fmt.Sprintf("keys=[%s]", strings.Join(n.GroupNames, ", ")))
		names := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			names[i] = a.Name
		}
		parts = append(parts, fmt.Sprintf("aggs=[%s]", strings.Join(names, ", ")))
		if n.Mode == ModeVector && n.codeGroups > 0 {
			parts = append(parts, fmt.Sprintf("index=codes(%d)", n.codeGroups))
		}
	}
	if n.Kind == opSeqScan || n.Kind == opIndexScan || n.Kind == opIndexJoin {
		var names []string
		dicts := n.Table.File.Data().Dicts(n.reads)
		for j, col := range n.Table.Schema().Columns {
			if dicts[j] != nil {
				names = append(names, col.Name)
			}
		}
		if len(names) > 0 {
			parts = append(parts, "coded=["+strings.Join(names, ", ")+"]")
		}
	}
	if len(n.SetNames) > 0 {
		parts = append(parts, fmt.Sprintf("set=[%s]", strings.Join(n.SetNames, ", ")))
	}
	if n.FilterStr != "" {
		parts = append(parts, "filter=("+n.FilterStr+")")
	}
	if n.Mode == ModeVector && n.stages != nil {
		var stages []string
		for _, cols := range n.stages {
			if len(cols) > 0 {
				names := make([]string, len(cols))
				for i, c := range cols {
					names[i] = n.Table.Schema().Columns[c].Name
				}
				stages = append(stages, strings.Join(names, ", "))
			}
		}
		parts = append(parts, "fetch=["+strings.Join(stages, " | ")+"]")
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

// fmtEnergy renders joules with a readable unit.
func fmtEnergy(j float64) string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3gJ", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3gmJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3guJ", j*1e6)
	default:
		return fmt.Sprintf("%.3gnJ", j*1e9)
	}
}

// walkTree renders the node tree with box-drawing connectors; line receives
// each node and its rendered prefix.
func walkTree(root *Node, line func(n *Node, prefix string)) {
	var walk func(n *Node, prefix, childPrefix string)
	walk = func(n *Node, prefix, childPrefix string) {
		line(n, prefix)
		for i, k := range n.Kids {
			if i == len(n.Kids)-1 {
				walk(k, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(k, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	walk(root, "", "")
}

// ExplainColumns is the output schema of EXPLAIN results.
var ExplainColumns = []string{"plan"}

// Explain renders the chosen physical plan, one row per operator, with the
// optimizer's cardinality and active-energy predictions.
func (p *Prepared) Explain() ([]value.Row, []string) {
	var rows []value.Row
	walkTree(p.Root, func(n *Node, prefix string) {
		line := fmt.Sprintf("%s%s%s  (rows≈%.0f, E≈%s)",
			prefix, n.Title(), n.detail(), n.EstRows, fmtEnergy(n.EstEJ))
		rows = append(rows, value.Row{value.Str(line)})
	})
	total := fmt.Sprintf("predicted total: E≈%s", fmtEnergy(p.PredictedEJ()))
	rows = append(rows, value.Row{value.Str(total)})
	return rows, ExplainColumns
}

// Summary renders the winning plan as one line — operators in execution
// order, leaves first — for the slow-query log and metric labels, where the
// multi-line EXPLAIN tree would not fit. E.g.
// "SeqScan lineitem → HashAggregate → Sort [revenue]".
func (p *Prepared) Summary() string {
	var titles []string
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, k := range n.Kids {
			walk(k)
		}
		titles = append(titles, n.Title())
	}
	walk(p.Root)
	return strings.Join(titles, " → ")
}

// PredictedEJ sums the per-operator energy predictions.
func (p *Prepared) PredictedEJ() float64 { return predictedEJ(p.Root) }

func predictedEJ(n *Node) float64 {
	total := n.EstEJ
	for _, k := range n.Kids {
		total += predictedEJ(k)
	}
	return total
}

// ExplainEnergy executes the plan with per-operator metering under the
// profiler and renders the measured attribution (Attribute): each
// operator's share of the statement's measured Eactive. Beside each
// measured row count and energy the line prints the planner's prediction,
// the plain EXPLAIN's rows≈ and E≈, and the signed error of E≈ against the
// measured E. A write plan run outside a transaction autocommits inside the
// region; the begin and the commit happen outside every operator's meter
// window and are credited to the root, the write node, whose estimate
// prices them.
//
// It returns the rendered rows and the statement-level breakdown (for the
// caller's energy ledger).
func (p *Prepared) ExplainEnergy(prof *core.Profiler) ([]value.Row, []string, core.Breakdown, error) {
	op, mt, err := p.buildMetered()
	if err != nil {
		return nil, nil, core.Breakdown{}, err
	}
	var runErr error
	b := prof.Profile("explain-energy", func() {
		_, runErr = p.drain(op)
	})
	if runErr != nil {
		return nil, nil, b, runErr
	}

	at := p.Attribute(mt.meters, b)
	var rows []value.Row
	walkTree(p.Root, func(n *Node, prefix string) {
		m := mt.meters[n]
		eJ := at.EJ[n]
		nb := prof.Cal.BreakdownCounters(n.Title(), at.Own[n], eJ)
		share := 0.0
		if b.EActive > 0 {
			share = eJ / b.EActive
		}
		line := fmt.Sprintf("%s%s%s  (rows=%d of ≈%.0f, E=%s %4.1f%%, L1D+Reg2L1D %4.1f%%, E≈%s %+.0f%%)",
			prefix, n.Title(), n.detail(), m.Rows(), n.EstRows, fmtEnergy(eJ),
			share*100, nb.L1DShare()*100, fmtEnergy(n.EstEJ), relErr(n.EstEJ, eJ)*100)
		rows = append(rows, value.Row{value.Str(line)})
	})
	stmt := prof.Cal.BreakdownCounters("statement", b.Counters, b.EActive)
	rows = append(rows,
		value.Row{value.Str(fmt.Sprintf("measured total: Eactive=%s, L1D+Reg2L1D %.1f%%",
			fmtEnergy(b.EActive), stmt.L1DShare()*100))},
		value.Row{value.Str(fmt.Sprintf("predicted total: E≈%s (%+.1f%% vs measured)",
			fmtEnergy(p.PredictedEJ()), relErr(p.PredictedEJ(), b.EActive)*100))},
	)
	return rows, ExplainColumns, b, nil
}

// Attribution is a metered run's split over the plan's nodes.
type Attribution struct {
	// Own is each node's exclusive counters; the root's also hold what no
	// meter saw (an autocommit's begin and commit).
	Own map[*Node]memsim.Counters
	// EJ is Own priced with the calibrated ΔE_m table and scaled so that
	// the nodes sum exactly to the run's measured E_active: the counter
	// deltas partition the run, so the scale only absorbs the E_other
	// residual Eq. 1 cannot place.
	EJ map[*Node]float64
}

// Attribute splits a run of the plan, built by BuildMetered and measured as
// b, over its nodes from the meters that build returned: each node's EJ is
// the E an EXPLAIN ENERGY line prints.
func (p *Prepared) Attribute(meters map[*Node]*exec.Meter, b core.Breakdown) Attribution {
	at := Attribution{Own: make(map[*Node]memsim.Counters), EJ: make(map[*Node]float64)}
	unmetered := b.Counters.Sub(meters[p.Root].Inclusive())
	sum := 0.0
	var each func(n *Node)
	each = func(n *Node) {
		own := meters[n].Own()
		if n == p.Root {
			own = own.Add(unmetered)
		}
		at.Own[n] = own
		at.EJ[n] = p.E.M.Profile.Energy.Active(own, p.E.M.PState()).Total()
		sum += at.EJ[n]
		for _, k := range n.Kids {
			each(k)
		}
	}
	each(p.Root)
	if sum > 0 && b.EActive > 0 {
		scale := b.EActive / sum
		for n := range at.EJ {
			at.EJ[n] *= scale
		}
	}
	return at
}

// relErr is (predicted - measured) / measured.
func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return (pred - meas) / meas
}
