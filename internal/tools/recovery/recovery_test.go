package recovery

import (
	"testing"
	"time"

	isis "repro"
	"repro/internal/stable"
)

func cluster(t *testing.T, sites int) *isis.Cluster {
	t.Helper()
	c, err := isis.NewCluster(isis.ClusterConfig{Sites: sites, CallTimeout: 2 * time.Second, ReplyTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestAdviceString(t *testing.T) {
	if Restart.String() != "restart" || Rejoin.String() != "rejoin" || Advice(9).String() != "unknown" {
		t.Error("Advice strings wrong")
	}
}

func TestDiagnoseRejoinWhenGroupAlive(t *testing.T) {
	c := cluster(t, 2)
	// The service runs at site 1.
	svc, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateGroup("inventory"); err != nil {
		t.Fatal(err)
	}
	// Site 2's recovery manager should advise Rejoin: the group is alive.
	m := NewManager(c.Site(2))
	advice, err := m.Diagnose("inventory")
	if err != nil {
		t.Fatal(err)
	}
	if advice != Rejoin {
		t.Errorf("advice = %v, want Rejoin (partial failure)", advice)
	}
}

func TestDiagnoseRestartWhenGroupGone(t *testing.T) {
	c := cluster(t, 2)
	m := NewManager(c.Site(1))
	advice, err := m.Diagnose("defunct-service")
	if err != nil {
		t.Fatal(err)
	}
	if advice != Restart {
		t.Errorf("advice = %v, want Restart (total failure)", advice)
	}
}

func TestRecoverAllRunsRestartFunctions(t *testing.T) {
	c := cluster(t, 2)
	// One live group ("alive"), one dead ("dead"): the restart functions
	// must receive the matching advice and the registered stores.
	svc, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateGroup("alive"); err != nil {
		t.Fatal(err)
	}

	m := NewManager(c.Site(2))
	aliveStore := stable.NewMem()
	deadStore := stable.NewMem()
	_ = deadStore.WriteCheckpoint([]byte("persisted"))

	got := map[string]Advice{}
	stores := map[string]stable.Store{}
	m.Register("alive", aliveStore, func(a Advice, s stable.Store) error {
		got["alive"] = a
		stores["alive"] = s
		return nil
	})
	m.Register("dead", deadStore, func(a Advice, s stable.Store) error {
		got["dead"] = a
		stores["dead"] = s
		return nil
	})
	if names := m.Services(); len(names) != 2 || names[0] != "alive" || names[1] != "dead" {
		t.Errorf("Services = %v", names)
	}

	result, err := m.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if result["alive"] != Rejoin || got["alive"] != Rejoin {
		t.Errorf("alive advice = %v / %v", result["alive"], got["alive"])
	}
	if result["dead"] != Restart || got["dead"] != Restart {
		t.Errorf("dead advice = %v / %v", result["dead"], got["dead"])
	}
	if stores["dead"] != deadStore {
		t.Error("restart function did not receive its stable store")
	}
	// The dead service's stable state is still intact for the restart.
	cp, _, _ := stores["dead"].Recover()
	if string(cp) != "persisted" {
		t.Errorf("checkpoint = %q", cp)
	}
}

func TestUnregister(t *testing.T) {
	c := cluster(t, 1)
	m := NewManager(c.Site(1))
	m.Register("svc", nil, func(Advice, stable.Store) error { return nil })
	m.Unregister("svc")
	if len(m.Services()) != 0 {
		t.Errorf("Services after unregister = %v", m.Services())
	}
	res, err := m.RecoverAll()
	if err != nil || len(res) != 0 {
		t.Errorf("RecoverAll = %v, %v", res, err)
	}
}

func TestEndToEndPartialRecoveryRejoinsAndTransfersState(t *testing.T) {
	c := cluster(t, 2)
	// A replicated "inventory" service with state at site 1; site 2's copy
	// fails; the recovery manager at site 2 advises Rejoin and the restart
	// function joins with a state transfer, obtaining the current state.
	primary, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := primary.CreateGroup("inventory")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetStateProvider(v.Group, func() [][]byte {
		return [][]byte{[]byte("widgets=42")}
	}); err != nil {
		t.Fatal(err)
	}

	m := NewManager(c.Site(2))
	recoveredState := ""
	m.Register("inventory", nil, func(a Advice, _ stable.Store) error {
		if a != Rejoin {
			t.Errorf("advice = %v", a)
			return nil
		}
		p, err := c.Site(2).Spawn()
		if err != nil {
			return err
		}
		gid, err := p.Lookup("inventory")
		if err != nil {
			return err
		}
		done := make(chan struct{})
		if _, err := p.Join(gid, isis.JoinOptions{StateReceiver: func(b []byte, last bool) {
			if len(b) > 0 {
				recoveredState = string(b)
			}
			if last {
				close(done)
			}
		}}); err != nil {
			return err
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("state transfer timed out during recovery")
		}
		return nil
	})
	if _, err := m.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	if recoveredState != "widgets=42" {
		t.Errorf("recovered state = %q", recoveredState)
	}
}

// TestAutoRestartOnSiteRecovery: once armed, the manager runs the registered
// restart functions when its site sees another site come back.
func TestAutoRestartOnSiteRecovery(t *testing.T) {
	c := cluster(t, 2)
	// Sites only monitor peers they have exchanged traffic with.
	svc, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateGroup("ledger"); err != nil {
		t.Fatal(err)
	}
	peer, err := c.Site(2).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.JoinByName("ledger", isis.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	m := NewManager(c.Site(1))
	restarted := make(chan Advice, 16) // more than the site-up events one restart can raise
	m.Register("ledger", nil, func(a Advice, _ stable.Store) error {
		restarted <- a
		return nil
	})
	m.AutoRestartOnSiteRecovery()
	m.AutoRestartOnSiteRecovery() // arming again is a no-op

	down, cancel := c.Site(1).Events(isis.EventFilter{Kinds: []isis.EventKind{isis.EventSiteDown}})
	defer cancel()
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-down:
	case <-time.After(10 * time.Second):
		t.Fatal("site 1 never saw site 2 fail")
	}
	select {
	case a := <-restarted:
		t.Fatalf("restart function ran with advice %v before any site recovered", a)
	default:
	}
	if _, err := c.AddSite(2); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-restarted:
		if a != Rejoin {
			t.Errorf("advice = %v, want Rejoin (the group lives on at site 1)", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no restart after site 2 came back")
	}
}
