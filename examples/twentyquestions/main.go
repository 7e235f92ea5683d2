// Command twentyquestions reproduces the worked example of Section 5 of the
// paper: a "twenty questions" service whose replicated database is
// partitioned among the members of a process group.
//
// The program walks through the paper's development steps:
//
//	Step 1/2 — a distributed query service: vertical-mode queries
//	          ("price > 9000") are answered by the member responsible for
//	          the column (column mod NMEMBERS); horizontal-mode queries
//	          ("*price > 9000") are answered by every member, each basing
//	          its answer on the rows it owns (row mod NMEMBERS).
//	Step 4   — hot standbys that join the group but send null replies, so
//	          clients are oblivious to them until a member fails.
//	Step 5   — dynamic updates to the database, carried by GBCAST so they
//	          are virtually synchronous relative to CBCAST queries.
//	Step 3/6 — a member fails; the standby observes the membership change,
//	          recomputes its rank, and starts answering in its place.
//
// Every decision (who answers which query) is made locally from the ranked
// membership view — no agreement protocol runs per request.
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	isis "repro"
)

// The first rows of the demonstration database from the paper.
var seedRows = []string{
	"car red small 5 Weeks Toy",
	"car yellow tiny 6 Mattel Toy",
	"car black compact 4995 Hyundai Excel",
	"car tan wagon 6190 Nissan Sentra",
	"car green sedan 10999 Ford Taurus",
	"car blue compact 5799 Honda Civic",
	"car white wagon 15248 Ford Taurus",
	"car blue sport 18409 Nissan 300ZX",
	"car blue sport 26776 Porsche 944",
	"car white sport 35000 Mercedes 300D",
}

var columns = []string{"object", "color", "size", "price", "make", "model"}

const (
	entryQuery  = isis.EntryUserBase     // queries (CBCAST)
	entryUpdate = isis.EntryUserBase + 1 // database updates (GBCAST)
)

// server is one member of the twenty-questions service.
type server struct {
	proc    *isis.Process
	name    string
	standby bool

	mu   sync.Mutex
	rows []string
	rank int
	size int
}

// nmembers is the number of active (non-standby) members the work is
// partitioned across, as in the paper's NMEMBERS constant.
const nmembers = 3

func newServer(p *isis.Process, name string, standby bool) *server {
	s := &server{proc: p, name: name, standby: standby, rows: append([]string(nil), seedRows...)}
	p.BindEntry(entryQuery, s.onQuery)
	p.BindEntry(entryUpdate, s.onUpdate)
	return s
}

// track keeps the member's own rank up to date as views change; standbys
// promote themselves when they move into the first nmembers ranks.
func (s *server) track(gid isis.Address) {
	s.proc.Monitor(gid, func(v isis.View) {
		s.mu.Lock()
		s.rank = v.RankOf(s.proc.Address())
		s.size = v.Size()
		promoted := s.standby && s.rank < nmembers
		if promoted {
			s.standby = false
		}
		s.mu.Unlock()
		if promoted {
			fmt.Printf("  [%s] standby promoted: now answering as member %d\n", s.name, s.rank)
		}
	})
}

// onQuery answers a query using only local information and the ranked view.
func (s *server) onQuery(m *isis.Message) {
	q := m.GetString("q", "")
	s.mu.Lock()
	rank, standby := s.rank, s.standby
	rows := append([]string(nil), s.rows...)
	s.mu.Unlock()

	if standby || rank < 0 || rank >= nmembers {
		_ = s.proc.NullReply(m) // standbys and excess members stay invisible
		return
	}
	horizontal := strings.HasPrefix(q, "*")
	q = strings.TrimPrefix(q, "*")
	col, op, value, err := parseQuery(q)
	if err != nil {
		_ = s.proc.Reply(m, isis.NewMessage().PutString("answer", "error: "+err.Error()))
		return
	}
	if !horizontal {
		// Vertical mode: only member (column mod NMEMBERS) answers.
		if col%nmembers != rank {
			_ = s.proc.NullReply(m)
			return
		}
		_ = s.proc.Reply(m, isis.NewMessage().
			PutString("answer", evaluate(rows, col, op, value)).
			PutInt("member", int64(rank)))
		return
	}
	// Horizontal mode: every active member answers over its own rows.
	var mine []string
	for i, r := range rows {
		if i%nmembers == rank {
			mine = append(mine, r)
		}
	}
	_ = s.proc.Reply(m, isis.NewMessage().
		PutString("answer", evaluate(mine, col, op, value)).
		PutInt("member", int64(rank)))
}

// onUpdate applies a database update. Updates arrive by GBCAST, so they are
// ordered identically at every member relative to queries and to membership
// changes.
func (s *server) onUpdate(m *isis.Message) {
	row := m.GetString("row", "")
	if row == "" {
		return
	}
	s.mu.Lock()
	s.rows = append(s.rows, row)
	n := len(s.rows)
	s.mu.Unlock()
	fmt.Printf("  [%s] database now has %d rows\n", s.name, n)
}

// parseQuery splits "price > 9000" into a column index, operator and value.
func parseQuery(q string) (col int, op string, value string, err error) {
	fields := strings.Fields(q)
	if len(fields) != 3 {
		return 0, "", "", fmt.Errorf("malformed query %q", q)
	}
	for i, c := range columns {
		if c == fields[0] {
			return i, fields[1], fields[2], nil
		}
	}
	return 0, "", "", fmt.Errorf("unknown column %q", fields[0])
}

// evaluate answers yes / no / sometimes over the given rows.
func evaluate(rows []string, col int, op, value string) string {
	matches, total := 0, 0
	for _, r := range rows {
		fields := strings.Fields(r)
		if col >= len(fields) {
			continue
		}
		total++
		if matchField(fields[col], op, value) {
			matches++
		}
	}
	switch {
	case total == 0 || matches == 0:
		return "no"
	case matches == total:
		return "yes"
	default:
		return "sometimes"
	}
}

func matchField(field, op, value string) bool {
	switch op {
	case "=":
		return field == value
	case ">", "<":
		fv, err1 := strconv.Atoi(field)
		qv, err2 := strconv.Atoi(value)
		if err1 != nil || err2 != nil {
			return false
		}
		if op == ">" {
			return fv > qv
		}
		return fv < qv
	default:
		return false
	}
}

// ask sends one query and prints the collected answers. A failed query or
// fewer answers than asked for ends the program: the service must answer
// every query, across the update and the failure too.
func ask(client *isis.Process, gid isis.Address, q string, want int) {
	m := isis.NewMessage().PutString("q", q)
	replies, err := client.Cast(isis.CBCAST, []isis.Address{gid}, entryQuery, m, isis.Replies(want))
	if err != nil {
		log.Fatalf("query %q: %v", q, err)
	}
	if len(replies) < want {
		log.Fatalf("query %q: %d answers, want %d", q, len(replies), want)
	}
	parts := make([]string, 0, len(replies))
	for _, r := range replies {
		parts = append(parts, fmt.Sprintf("member %d: %s", r.GetInt("member", -1), r.GetString("answer", "?")))
	}
	fmt.Printf("query %-18q -> %s\n", q, strings.Join(parts, ", "))
}

func main() {
	cluster, err := isis.NewCluster(isis.ClusterConfig{Sites: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Steps 1-2: three active members partition the database; step 4: a
	// fourth member joins as a hot standby.
	fmt.Println("== building the twenty-questions service (3 members + 1 standby) ==")
	var gid isis.Address
	servers := make([]*server, 0, 4)
	for i := 0; i < 4; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			log.Fatal(err)
		}
		s := newServer(p, fmt.Sprintf("member-%d", i), i >= nmembers)
		servers = append(servers, s)
		if i == 0 {
			v, err := p.CreateGroup("twenty")
			if err != nil {
				log.Fatal(err)
			}
			gid = v.Group
		} else {
			if _, err := p.JoinByName("twenty", isis.JoinOptions{}); err != nil {
				log.Fatal(err)
			}
		}
		s.track(gid)
	}
	time.Sleep(100 * time.Millisecond) // let the final view settle everywhere

	// A front-end client at site 2 issues queries.
	client, err := cluster.Site(2).Spawn()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Lookup("twenty"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== vertical-mode queries (one member answers each) ==")
	ask(client, gid, "color = red", 1)
	ask(client, gid, "price > 9000", 1)
	ask(client, gid, "make = Porsche", 1)

	fmt.Println("== horizontal-mode queries (every active member answers over its rows) ==")
	ask(client, gid, "*price > 9000", nmembers)
	ask(client, gid, "*size = sport", nmembers)

	// Step 5: a dynamic update, virtually synchronous with the queries.
	fmt.Println("== dynamic update via GBCAST ==")
	upd := isis.NewMessage().PutString("row", "car silver sedan 52000 Lucid Air")
	if _, err := client.Cast(isis.GBCAST, []isis.Address{gid}, entryUpdate, upd); err != nil {
		log.Fatal(err)
	}
	ask(client, gid, "price > 40000", 1)

	// Steps 3/6: the member at site 2 fails; the hot standby is promoted by
	// the membership change and queries keep working.
	fmt.Println("== failing member-1; the standby takes over ==")
	if err := servers[1].proc.Kill(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the failure view propagate
	ask(client, gid, "price > 9000", 1)
	ask(client, gid, "*price > 9000", nmembers)

	fmt.Printf("== done; cluster counters: %+v ==\n", cluster.Counters())
}
