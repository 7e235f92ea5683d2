package news

import (
	"sort"
	"sync"

	isis "repro"
)

// GroupName is the symbolic name under which the news service registers.
const GroupName = "isis:news"

const (
	fOp      = "news-op"
	fSubject = "news-subject"
	opSub    = "subscribe"
	opUnsub  = "unsubscribe"
	opPost   = "post"
	opFeed   = "feed"
)

// Server is one member of the news service group.
type Server struct {
	p   *isis.Process
	gid isis.Address

	mu   sync.Mutex
	subs map[string][]isis.Address // subject -> subscribers (sorted, deduped)
}

// StartServer creates (or joins) the news service group with the given
// process as a server.
func StartServer(p *isis.Process) (*Server, error) {
	s := &Server{p: p, subs: make(map[string][]isis.Address)}
	p.BindEntry(isis.EntryNews, s.onMessage)
	if gid, err := p.Lookup(GroupName); err == nil {
		if _, err := p.Join(gid, isis.JoinOptions{}); err != nil {
			return nil, err
		}
		s.gid = gid
	} else {
		v, err := p.CreateGroup(GroupName)
		if err != nil {
			return nil, err
		}
		s.gid = v.Group
	}
	return s, nil
}

// Group returns the news service's group address.
func (s *Server) Group() isis.Address { return s.gid }

// Subjects returns the subjects with at least one subscriber (for tests and
// monitoring).
func (s *Server) Subjects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.subs))
	for subj := range s.subs {
		out = append(out, subj)
	}
	sort.Strings(out)
	return out
}

// onMessage applies subscription changes and postings. All servers see them
// in the same (ABCAST) order, so their subscriber tables stay identical and
// the forwarding decision below needs no coordination.
func (s *Server) onMessage(m *isis.Message) {
	subject := m.GetString(fSubject, "")
	switch m.GetString(fOp, "") {
	case opSub:
		s.addSubscriber(subject, m.Sender())
	case opUnsub:
		s.removeSubscriber(subject, m.Sender())
	case opPost:
		s.forward(subject, m)
	}
}

func (s *Server) addSubscriber(subject string, who isis.Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.subs[subject] {
		if a == who.Base() {
			return
		}
	}
	s.subs[subject] = append(s.subs[subject], who.Base())
	sort.Slice(s.subs[subject], func(i, j int) bool { return s.subs[subject][i].Less(s.subs[subject][j]) })
}

func (s *Server) removeSubscriber(subject string, who isis.Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.subs[subject]
	out := list[:0]
	for _, a := range list {
		if a != who.Base() {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		delete(s.subs, subject)
	} else {
		s.subs[subject] = out
	}
}

// forward delivers a posting to the local responsibility share of the
// subscribers: the server whose rank equals (index of subscriber) mod
// (number of servers) forwards to that subscriber. Every server computes
// the same assignment from the same view and subscriber table.
func (s *Server) forward(subject string, post *isis.Message) {
	view, ok := s.p.CurrentView(s.gid)
	if !ok || view.Size() == 0 {
		return
	}
	myRank := view.RankOf(s.p.Address())
	if myRank < 0 {
		return
	}
	s.mu.Lock()
	subscribers := append([]isis.Address(nil), s.subs[subject]...)
	s.mu.Unlock()

	feed := isis.NewMessage()
	feed.PutString(fOp, opFeed)
	feed.PutString(fSubject, subject)
	feed.PutString("body", post.GetString("body", ""))
	if b := post.BytesView("data"); b != nil {
		feed.PutBytes("data", b)
	}
	feed.PutAddress("news-poster", post.Sender())

	var mine []isis.Address
	for i, sub := range subscribers {
		if i%view.Size() == myRank {
			mine = append(mine, sub)
		}
	}
	if len(mine) == 0 {
		return
	}
	_, _ = s.p.Cast(isis.CBCAST, mine, isis.EntryNews, feed)
}

// ---------------------------------------------------------------------------
// Client side

// Posting is one delivered news item.
type Posting struct {
	Subject string
	Body    string
	Data    []byte
	Poster  isis.Address
}

// Client subscribes to subjects and posts news.
type Client struct {
	p   *isis.Process
	gid isis.Address

	mu       sync.Mutex
	handlers map[string][]func(Posting)
}

// NewClient attaches a process to the news service (which must already have
// at least one server).
func NewClient(p *isis.Process) (*Client, error) {
	gid, err := p.Lookup(GroupName)
	if err != nil {
		return nil, err
	}
	c := &Client{p: p, gid: gid, handlers: make(map[string][]func(Posting))}
	p.BindEntry(isis.EntryNews, c.onFeed)
	return c, nil
}

// Subscribe enrolls the process for a subject; the handler runs for every
// posting on it, in posting order.
func (c *Client) Subscribe(subject string, handler func(Posting)) error {
	c.mu.Lock()
	c.handlers[subject] = append(c.handlers[subject], handler)
	c.mu.Unlock()
	m := isis.NewMessage().PutString(fOp, opSub).PutString(fSubject, subject)
	_, err := c.p.Cast(isis.ABCAST, []isis.Address{c.gid}, isis.EntryNews, m)
	return err
}

// Unsubscribe cancels the enrollment for a subject.
func (c *Client) Unsubscribe(subject string) error {
	c.mu.Lock()
	delete(c.handlers, subject)
	c.mu.Unlock()
	m := isis.NewMessage().PutString(fOp, opUnsub).PutString(fSubject, subject)
	_, err := c.p.Cast(isis.ABCAST, []isis.Address{c.gid}, isis.EntryNews, m)
	return err
}

// Post publishes a news item on a subject (one asynchronous multicast to the
// service, Table 1).
func (c *Client) Post(subject, body string, data []byte) error {
	m := isis.NewMessage().PutString(fOp, opPost).PutString(fSubject, subject).PutString("body", body)
	if data != nil {
		m.PutBytes("data", data)
	}
	_, err := c.p.Cast(isis.ABCAST, []isis.Address{c.gid}, isis.EntryNews, m)
	return err
}

// onFeed dispatches a forwarded posting to the local handlers.
func (c *Client) onFeed(m *isis.Message) {
	if m.GetString(fOp, "") != opFeed {
		return
	}
	p := Posting{
		Subject: m.GetString(fSubject, ""),
		Body:    m.GetString("body", ""),
		Data:    m.GetBytes("data"),
		Poster:  m.GetAddress("news-poster"),
	}
	c.mu.Lock()
	handlers := make([]func(Posting), len(c.handlers[p.Subject]))
	copy(handlers, c.handlers[p.Subject])
	c.mu.Unlock()
	for _, h := range handlers {
		h(p)
	}
}
