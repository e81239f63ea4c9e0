package tpch

import "fmt"

// SQLQuery is the SQL text of one of the 22 TPC-H read queries, for the
// logical-plan optimizer (internal/db/plan): every TPC-H run in the repository
// plans its text. The texts simplify TPC-H as this grammar requires — fixed
// substitution parameters, date ranges written as BETWEEN (inclusive at both
// ends), no subqueries, so Q2, Q16 and Q21 lose their correlated and EXISTS
// filters. Where the grammar cannot say what the query returns at all, the
// text computes strictly less and Note says what TPC-H returns that it does
// not (13 of the 22).
type SQLQuery struct {
	ID   int
	Text string
	Note string
}

// rev is the revenue expression shared by most query texts.
const rev = "l_extendedprice * (1 - l_discount)"

// SQLQueries returns SQL texts for all 22 TPC-H queries in order.
//
// Dates use the generator's leap-free calendar (MkDate), so for example
// 1993-07-02 is day 182 of 1993 — the literal matching MkDate(1993, 182).
func SQLQueries() []SQLQuery {
	return []SQLQuery{
		{1, `SELECT l_returnflag, l_linestatus,
			SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
			SUM(` + rev + `) AS sum_disc_price,
			SUM(` + rev + ` * (1 + l_tax)) AS sum_charge,
			AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
			AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
			FROM lineitem WHERE l_shipdate <= '1998-05-31'
			GROUP BY l_returnflag, l_linestatus
			ORDER BY l_returnflag, l_linestatus`, ""},

		{2, `SELECT p_partkey, MIN(ps_supplycost) AS min_cost, MAX(s_acctbal) AS max_bal
			FROM part
			JOIN partsupp ON p_partkey = ps_partkey
			JOIN supplier ON ps_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			JOIN region ON n_regionkey = r_regionkey
			WHERE p_size = 15 AND p_type LIKE '%STEEL' AND r_name = 'EUROPE'
			GROUP BY p_partkey ORDER BY max_bal DESC LIMIT 100`, ""},

		{3, `SELECT o_orderkey, o_orderdate, o_shippriority, SUM(` + rev + `) AS revenue
			FROM customer
			JOIN orders ON c_custkey = o_custkey
			JOIN lineitem ON o_orderkey = l_orderkey
			WHERE c_mktsegment = 'BUILDING'
			AND o_orderdate < '1995-03-16' AND l_shipdate > '1995-03-16'
			GROUP BY o_orderkey, o_orderdate, o_shippriority
			ORDER BY revenue DESC LIMIT 10`, ""},

		{4, `SELECT o_orderpriority, COUNT(*) AS order_count
			FROM orders JOIN lineitem ON o_orderkey = l_orderkey
			WHERE o_orderdate BETWEEN '1993-07-02' AND '1993-10-02'
			AND l_commitdate < l_receiptdate
			GROUP BY o_orderpriority ORDER BY o_orderpriority`,
			"counts late lineitems per priority; TPC-H counts the orders that have one (no EXISTS in the grammar)"},

		{5, `SELECT n_name, SUM(` + rev + `) AS revenue
			FROM orders
			JOIN customer ON o_custkey = c_custkey
			JOIN lineitem ON o_orderkey = l_orderkey
			JOIN supplier ON l_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			JOIN region ON n_regionkey = r_regionkey
			WHERE o_orderdate BETWEEN '1994-01-01' AND '1995-01-01'
			AND c_nationkey = s_nationkey AND r_name = 'ASIA'
			GROUP BY n_name ORDER BY revenue DESC`, ""},

		{6, `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
			WHERE l_shipdate BETWEEN '1994-01-01' AND '1995-01-01'
			AND l_discount BETWEEN 0.05 AND 0.0701 AND l_quantity < 24`, ""},

		{7, `SELECT n_name, c_nationkey, SUM(` + rev + `) AS revenue
			FROM lineitem
			JOIN supplier ON l_suppkey = s_suppkey
			JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE l_shipdate BETWEEN '1995-01-01' AND '1997-01-01'
			AND (s_nationkey = 6 AND c_nationkey = 7 OR s_nationkey = 7 AND c_nationkey = 6)
			GROUP BY n_name, c_nationkey ORDER BY n_name, c_nationkey`,
			"groups by nation pair only; TPC-H also groups by ship year (no year extraction in the grammar)"},

		{8, `SELECT SUM((n_name = 'BRAZIL') * ` + rev + `) AS brazil_rev,
			SUM(` + rev + `) AS total_rev
			FROM part
			JOIN lineitem ON p_partkey = l_partkey
			JOIN orders ON l_orderkey = o_orderkey
			JOIN supplier ON l_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE p_type = 'ECONOMY ANODIZED STEEL'
			AND o_orderdate BETWEEN '1995-01-01' AND '1997-01-01'`,
			"returns BRAZIL's and all nations' revenue over both years; TPC-H returns BRAZIL's share per year (no year extraction or arithmetic over aggregates in the grammar)"},

		{9, `SELECT n_name, SUM(` + rev + ` - ps_supplycost * l_quantity) AS sum_profit
			FROM part
			JOIN lineitem ON p_partkey = l_partkey
			JOIN partsupp ON l_partkey = ps_partkey
			JOIN supplier ON l_suppkey = s_suppkey
			JOIN orders ON l_orderkey = o_orderkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE p_name LIKE '%green%' AND l_suppkey = ps_suppkey
			GROUP BY n_name ORDER BY n_name`,
			"groups by nation only; TPC-H also groups by order year (no year extraction in the grammar)"},

		{10, `SELECT c_custkey, c_name, SUM(` + rev + `) AS revenue
			FROM orders
			JOIN lineitem ON o_orderkey = l_orderkey
			JOIN customer ON o_custkey = c_custkey
			WHERE o_orderdate BETWEEN '1993-10-02' AND '1994-01-01'
			AND l_returnflag = 'R'
			GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20`, ""},

		{11, `SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS stock_value
			FROM partsupp
			JOIN supplier ON ps_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE n_name = 'GERMANY'
			GROUP BY ps_partkey ORDER BY stock_value DESC`,
			"returns every part's stock value; TPC-H keeps those above a fraction of the total (no HAVING or scalar subquery in the grammar)"},

		{12, `SELECT l_shipmode,
			SUM((o_orderpriority = '1-URGENT') + (o_orderpriority = '2-HIGH')) AS high_line_count,
			COUNT(*) AS line_count
			FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE l_shipmode IN ('MAIL', 'SHIP')
			AND l_shipdate < l_commitdate AND l_commitdate < l_receiptdate
			AND l_receiptdate BETWEEN '1994-01-01' AND '1995-01-01'
			GROUP BY l_shipmode ORDER BY l_shipmode`,
			"reports line_count where TPC-H reports low_line_count = line_count - high_line_count (no arithmetic over aggregates in the grammar)"},

		{13, `SELECT o_custkey, COUNT(*) AS c_count FROM orders
			WHERE NOT o_orderpriority LIKE '%special%'
			GROUP BY o_custkey ORDER BY c_count DESC LIMIT 100`,
			"stops at order counts per customer; TPC-H counts customers per order count, those without orders included (no nested aggregation or outer join in the grammar)"},

		{14, `SELECT SUM((p_type LIKE 'PROMO%') * ` + rev + `) AS promo_rev,
			SUM(` + rev + `) AS total_rev
			FROM lineitem JOIN part ON l_partkey = p_partkey
			WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-10-01'`,
			"returns the two sums; TPC-H returns 100 times their ratio (no arithmetic over aggregates in the grammar)"},

		{15, `SELECT l_suppkey, SUM(` + rev + `) AS total_revenue FROM lineitem
			WHERE l_shipdate BETWEEN '1996-01-01' AND '1996-04-01'
			GROUP BY l_suppkey ORDER BY total_revenue DESC LIMIT 1`,
			"stops at the top supplier's key; TPC-H joins it to supplier for name, address and phone (no join over an aggregate in the grammar)"},

		{16, `SELECT p_brand, p_type, p_size, COUNT(*) AS supplier_cnt
			FROM part JOIN partsupp ON p_partkey = ps_partkey
			WHERE p_brand <> 'Brand#45' AND NOT p_type LIKE 'MEDIUM POLISHED%'
			AND p_size IN (3, 9, 14, 19, 23, 36, 45, 49)
			GROUP BY p_brand, p_type, p_size
			ORDER BY supplier_cnt DESC, p_brand, p_type, p_size`, ""},

		{17, `SELECT p_partkey, AVG(l_quantity) AS avg_qty
			FROM part JOIN lineitem ON p_partkey = l_partkey
			WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX'
			GROUP BY p_partkey ORDER BY p_partkey`,
			"stops at each part's average quantity; TPC-H sums the price of the lines below a fifth of it (no correlated subquery in the grammar)"},

		{18, `SELECT l_orderkey, SUM(l_quantity) AS sum_qty FROM lineitem
			GROUP BY l_orderkey ORDER BY sum_qty DESC LIMIT 100`,
			"stops at per-order quantity totals; TPC-H keeps the orders above a threshold with their customer and order columns (no IN subquery or join over an aggregate in the grammar)"},

		{19, `SELECT SUM(` + rev + `) AS revenue
			FROM lineitem JOIN part ON l_partkey = p_partkey
			WHERE l_shipinstruct = 'DELIVER IN PERSON'
			AND l_shipmode IN ('AIR', 'REG AIR')
			AND (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 12 AND p_size BETWEEN 1 AND 6
			OR p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 21 AND p_size BETWEEN 1 AND 11
			OR p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 31 AND p_size BETWEEN 1 AND 16)`, ""},

		{20, `SELECT l_partkey, l_suppkey, SUM(l_quantity) AS sum_qty FROM lineitem
			WHERE l_shipdate BETWEEN '1994-01-01' AND '1995-01-01'
			GROUP BY l_partkey, l_suppkey LIMIT 100`,
			"stops at the shipped quantity per part and supplier; TPC-H returns the suppliers of one nation stocking more than half of it (no nested subqueries in the grammar)"},

		{21, `SELECT s_name, COUNT(*) AS numwait
			FROM lineitem
			JOIN orders ON l_orderkey = o_orderkey
			JOIN supplier ON l_suppkey = s_suppkey
			JOIN nation ON s_nationkey = n_nationkey
			WHERE l_receiptdate > l_commitdate AND o_orderstatus = 'F'
			AND n_name = 'SAUDI ARABIA'
			GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 100`, ""},

		{22, `SELECT COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal FROM customer
			WHERE (c_phone LIKE '13%' OR c_phone LIKE '31%' OR c_phone LIKE '23%'
			OR c_phone LIKE '29%' OR c_phone LIKE '30%' OR c_phone LIKE '18%'
			OR c_phone LIKE '17%') AND c_acctbal > 0`,
			"returns one total over the seven country codes; TPC-H groups by code and keeps customers above the average balance without orders (no substring, scalar subquery or NOT EXISTS in the grammar)"},
	}
}

// SQLByID fetches one query text.
func SQLByID(id int) (SQLQuery, error) {
	for _, q := range SQLQueries() {
		if q.ID == id {
			return q, nil
		}
	}
	return SQLQuery{}, fmt.Errorf("tpch: no SQL for query %d", id)
}
