// Package scenario is the declarative experiment layer: a Spec
// composes a topology (node groups with access-link classes and
// inter-group latencies), a link model (pipe or flow), a workload
// (swarm, churn-swarm, snapshot, DHT, gossip) and a timeline of
// scheduled network events — partitions and heals between node groups,
// runtime link-class changes (degrade/restore), loss bursts and
// interface flaps. Specs are plain Go values, JSON-loadable, and runnable by
// name from the committed corpus (see corpus.go, `p2plab run`).
//
// This is the layer the paper's testbed reaches with hand-edited
// Dummynet configurations reloaded at run time; here the timeline is
// part of the experiment description itself, so a dynamic-network
// study is as reproducible as a static one.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/topo"
)

// Duration is a time.Duration that marshals to and from JSON as a
// human-readable string ("30s", "1h30m"); plain JSON numbers are
// accepted as nanoseconds.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String formats like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"30s\" or nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// GroupSpec declares one node group: a named set of nodes sharing an
// access-link class, addressable as a unit by timeline events.
type GroupSpec struct {
	Name  string `json:"name"`
	Class string `json:"class"` // one of topo.Classes (dsl, modem, ...)
	Nodes int    `json:"nodes"`
	// Prefix optionally pins the group's address block; empty assigns
	// 10.<index+1>.0.0/16 automatically.
	Prefix string `json:"prefix,omitempty"`
}

// LatencySpec declares the one-way latency between two groups.
type LatencySpec struct {
	A      string   `json:"a"`
	B      string   `json:"b"`
	OneWay Duration `json:"one_way"`
}

// Workload kinds.
const (
	WorkloadSwarm      = "swarm"
	WorkloadChurnSwarm = "churn-swarm"
	WorkloadSnapshot   = "snapshot"
	WorkloadDHT        = "dht"
	WorkloadGossip     = "gossip"
)

// maxWebSeeds caps a snapshot workload's web-seed fleet; web seeds are
// admin-space CDN hosts, not swarm members, and a handful saturates any
// corpus-sized scenario.
const maxWebSeeds = 16

// WorkloadSpec selects and tunes the application driven over the
// scenario's network. Zero-valued knobs take workload defaults.
type WorkloadSpec struct {
	Kind string `json:"kind"` // swarm | churn-swarm | snapshot | dht | gossip

	// Swarm family (swarm, churn-swarm, snapshot).
	FileSize      int64    `json:"file_size,omitempty"`      // bytes, default 1 MiB (8 MiB for snapshot)
	Seeders       int      `json:"seeders,omitempty"`        // default 1 (snapshot allows 0 with web seeds)
	SeederGroup   string   `json:"seeder_group,omitempty"`   // default: first group
	StartInterval Duration `json:"start_interval,omitempty"` // default 1s

	// Churn-swarm only.
	ChurnFraction float64  `json:"churn_fraction,omitempty"` // default 0.5
	Session       Duration `json:"session,omitempty"`        // mean up-time, default 120s
	Downtime      Duration `json:"downtime,omitempty"`       // mean down-time, default 60s

	// Snapshot only: the few-peers / huge-file / rate-capped regime.
	PieceLength int   `json:"piece_length,omitempty"` // bytes, default 2 MiB
	ConnCap     int   `json:"conn_cap,omitempty"`     // per-client peer budget, default 5
	UpRate      int64 `json:"up_rate,omitempty"`      // bytes/s token-bucket cap, 0 unlimited
	DownRate    int64 `json:"down_rate,omitempty"`    // bytes/s token-bucket cap, 0 unlimited
	WebSeeds    int   `json:"web_seeds,omitempty"`    // admin-space block servers, default 0
	// SeedRestartAt takes the first seeder offline mid-transfer; it
	// resumes (same storage) SeedRestartDown later (default 30s).
	SeedRestartAt   Duration `json:"seed_restart_at,omitempty"`
	SeedRestartDown Duration `json:"seed_restart_down,omitempty"`

	// DHT only.
	Lookups int `json:"lookups,omitempty"` // default 50

	// Gossip only.
	Fanout int `json:"fanout,omitempty"` // default 3
}

// Timeline actions.
const (
	ActionPartition = "partition"   // split A-side groups from B-side groups
	ActionHeal      = "heal"        // remove the partition between A and B
	ActionSetClass  = "set-class"   // re-rate Groups' access links to Class
	ActionLoss      = "loss"        // loss burst on Groups' links for For
	ActionLinkDown  = "link-down"   // take Groups' interfaces down
	ActionLinkUp    = "link-up"     // bring Groups' interfaces back up
	ActionAddRule   = "add-rule"    // install firewall rule(s) (Src/Dst/Rule/ID/Copies)
	ActionDelRule   = "del-rule"    // remove every firewall rule with ID
	ActionDenyPfx   = "deny-prefix" // firewall Groups off (deny to and from), For auto-reverts
)

// actions lists the known timeline actions.
var actions = []string{ActionPartition, ActionHeal, ActionSetClass, ActionLoss,
	ActionLinkDown, ActionLinkUp, ActionAddRule, ActionDelRule, ActionDenyPfx}

// ruleActions lists the rule bodies an add-rule event may install.
var ruleActions = []string{"count", "deny", "allow"}

// maxRuleCopies caps one add-rule event's filler batch and a spec's
// filler_rules padding.
const maxRuleCopies = 100000

// EventSpec is one scheduled network event on the scenario timeline.
type EventSpec struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`

	// Partition / heal: the two sides, as group names. A heal removes
	// the partition with the same (unordered) sides.
	A []string `json:"a,omitempty"`
	B []string `json:"b,omitempty"`

	// Set-class / loss / link-down / link-up targets.
	Groups []string `json:"groups,omitempty"`

	// Set-class: the new access-link class.
	Class string `json:"class,omitempty"`

	// Loss: the burst drop probability in [0,1].
	Loss float64 `json:"loss,omitempty"`

	// Add-rule: the rule's match sides — each a CIDR prefix or a group
	// name (resolved to the group's prefix); empty matches everything —
	// and its body ("count", "deny" or "allow").
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
	Rule string `json:"rule,omitempty"`

	// Add-rule / del-rule / deny-prefix: the IPFW rule number. 0 on
	// add-rule and deny-prefix auto-assigns the next free number;
	// del-rule requires it and removes every rule carrying it. A
	// permanent deny-prefix (no `for`) must pin an ID to be liftable
	// by a later del-rule — auto-assigned numbers are not knowable to
	// the spec author.
	ID int `json:"id,omitempty"`

	// Add-rule: install this many copies of the rule (a filler batch
	// for table-size studies, Fig 6). 0 means 1.
	Copies int `json:"copies,omitempty"`

	// For auto-reverts the event after this duration: a partition
	// heals, a loss burst restores the class loss rate, a downed link
	// comes back up, a deny-prefix lifts. Zero means permanent (until
	// a matching heal / link-up / set-class / del-rule event).
	// Required for loss.
	For Duration `json:"for,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Model       string   `json:"model,omitempty"` // pipe (default) | flow
	Seed        int64    `json:"seed,omitempty"`
	Horizon     Duration `json:"horizon,omitempty"` // default 1h virtual
	// FlowWindow batches the flow model's re-rate solves: churn events
	// within one window of virtual time drain in a single deterministic
	// solve per affected component (vnet.Config.FlowWindow). 0 keeps
	// the per-event solves the golden traces pin. Only valid with the
	// flow model — the pipe model has no solver to batch.
	FlowWindow Duration `json:"flow_window,omitempty"`
	// Classifier selects the firewall's classification algorithm
	// ("linear" or "indexed"). Setting it — or scheduling any rule
	// event on the timeline — gives the network a firewall table;
	// otherwise the run has none (vnet.Config.Rules == nil) and its
	// trace is byte-identical to pre-firewall builds.
	Classifier string `json:"classifier,omitempty"`
	// FillerRules pads the firewall table with this many filler rules
	// that never match workload traffic (netem.NewFillerTable), so every
	// message pays the classification cost — the Fig 6 artifact applied
	// to a whole workload. A positive value enables the firewall.
	FillerRules int           `json:"filler_rules,omitempty"`
	Groups      []GroupSpec   `json:"groups"`
	Latencies   []LatencySpec `json:"latencies,omitempty"`
	Workload    WorkloadSpec  `json:"workload"`
	Timeline    []EventSpec   `json:"timeline,omitempty"`
}

// FirewallEnabled reports whether the run carries a firewall table: an
// explicit classifier, filler rules or any rule event on the timeline
// enables it.
func (s *Spec) FirewallEnabled() bool {
	if s.Classifier != "" || s.FillerRules > 0 {
		return true
	}
	for _, ev := range s.Timeline {
		switch ev.Action {
		case ActionAddRule, ActionDelRule, ActionDenyPfx:
			return true
		}
	}
	return false
}

// Sanity bounds: scenarios describe emulation corpora, not arbitrary
// deployments; the caps keep a malformed (or fuzzed) spec from
// requesting an absurd build.
const (
	maxGroups        = 64
	maxNodesPerGroup = 8192
	maxTimeline      = 1024
)

// Load parses a JSON scenario spec. It never panics on malformed
// input; the returned spec is parsed but not yet validated.
func Load(data []byte) (*Spec, error) {
	var sp Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &sp, nil
}

// WithDefaults returns a copy with every zero-valued knob replaced by
// its documented default.
func (s *Spec) WithDefaults() *Spec {
	out := *s
	if out.Model == "" {
		out.Model = "pipe"
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Horizon <= 0 {
		out.Horizon = Duration(time.Hour)
	}
	w := &out.Workload
	switch w.Kind {
	case WorkloadSwarm, WorkloadChurnSwarm, WorkloadSnapshot:
		if w.FileSize <= 0 {
			w.FileSize = 1 << 20
			if w.Kind == WorkloadSnapshot {
				w.FileSize = 8 << 20 // a scaled-down huge-file pull
			}
		}
		// A snapshot workload with web seeds may legitimately run
		// seederless (the cold-CDN-fill case); everything else needs a
		// seeder.
		if w.Seeders <= 0 && (w.Kind != WorkloadSnapshot || w.WebSeeds <= 0) {
			w.Seeders = 1
		}
		if w.SeederGroup == "" && len(out.Groups) > 0 {
			w.SeederGroup = out.Groups[0].Name
		}
		if w.StartInterval <= 0 {
			w.StartInterval = Duration(time.Second)
		}
		if w.Kind == WorkloadChurnSwarm {
			if w.ChurnFraction == 0 {
				w.ChurnFraction = 0.5
			}
			if w.Session <= 0 {
				w.Session = Duration(120 * time.Second)
			}
			if w.Downtime <= 0 {
				w.Downtime = Duration(60 * time.Second)
			}
		}
		if w.Kind == WorkloadSnapshot {
			if w.PieceLength <= 0 {
				w.PieceLength = 2 << 20
			}
			if w.ConnCap <= 0 {
				w.ConnCap = 5
			}
			if w.SeedRestartAt > 0 && w.SeedRestartDown <= 0 {
				w.SeedRestartDown = Duration(30 * time.Second)
			}
		}
	case WorkloadDHT:
		if w.Lookups <= 0 {
			w.Lookups = 50
		}
	case WorkloadGossip:
		if w.Fanout <= 0 {
			w.Fanout = 3
		}
	}
	return &out
}

// Validate checks the spec for structural errors: unknown classes,
// groups or actions, out-of-range knobs, malformed prefixes. It is
// meant to be called on a defaulted spec (WithDefaults) and reports
// the first problem found.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	for _, r := range s.Name {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			// Names become identifiers and file names (the result CSV);
			// path separators and shell metacharacters stay out.
			return fmt.Errorf("scenario name %q: only letters, digits, '.', '_' and '-' allowed", s.Name)
		}
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario %s: no groups", s.Name)
	}
	if len(s.Groups) > maxGroups {
		return fmt.Errorf("scenario %s: %d groups (max %d)", s.Name, len(s.Groups), maxGroups)
	}
	if _, err := netem.ParseModel(s.Model); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Classifier != "" {
		if _, err := netem.ParseClassifier(s.Classifier); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.FillerRules < 0 || s.FillerRules > maxRuleCopies {
		return fmt.Errorf("scenario %s: %d filler rules outside [0,%d]", s.Name, s.FillerRules, maxRuleCopies)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario %s: horizon %v not positive", s.Name, s.Horizon)
	}
	if s.FlowWindow < 0 {
		return fmt.Errorf("scenario %s: negative flow window %v", s.Name, s.FlowWindow)
	}
	if s.FlowWindow > 0 && s.Model != "flow" {
		// Silently ignoring the knob would run a different scenario
		// than the author wrote — same policy as the other gated knobs.
		return fmt.Errorf("scenario %s: flow_window needs the flow model (got %q)", s.Name, s.Model)
	}
	groups := make(map[string]bool, len(s.Groups))
	total := 0
	for _, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("scenario %s: group with empty name", s.Name)
		}
		if groups[g.Name] {
			return fmt.Errorf("scenario %s: duplicate group %q", s.Name, g.Name)
		}
		groups[g.Name] = true
		if _, ok := topo.ClassByName(g.Class); !ok {
			return fmt.Errorf("scenario %s: group %q: unknown class %q", s.Name, g.Name, g.Class)
		}
		if g.Nodes < 1 || g.Nodes > maxNodesPerGroup {
			return fmt.Errorf("scenario %s: group %q: %d nodes outside [1,%d]", s.Name, g.Name, g.Nodes, maxNodesPerGroup)
		}
		if g.Prefix != "" {
			if _, err := ip.ParsePrefix(g.Prefix); err != nil {
				return fmt.Errorf("scenario %s: group %q: bad prefix %q: %w", s.Name, g.Name, g.Prefix, err)
			}
		}
		total += g.Nodes
	}
	for _, l := range s.Latencies {
		if !groups[l.A] || !groups[l.B] {
			return fmt.Errorf("scenario %s: latency between unknown groups %q and %q", s.Name, l.A, l.B)
		}
		if l.OneWay < 0 {
			return fmt.Errorf("scenario %s: negative latency %v", s.Name, l.OneWay)
		}
	}
	if err := s.validateWorkload(total); err != nil {
		return err
	}
	if len(s.Timeline) > maxTimeline {
		return fmt.Errorf("scenario %s: %d timeline events (max %d)", s.Name, len(s.Timeline), maxTimeline)
	}
	for i, ev := range s.Timeline {
		if err := s.validateEvent(ev, groups); err != nil {
			return fmt.Errorf("scenario %s: timeline[%d]: %w", s.Name, i, err)
		}
	}
	return nil
}

func (s *Spec) validateWorkload(totalNodes int) error {
	w := s.Workload
	// The snapshot knobs change what the experiment measures; silently
	// ignoring them on another kind would run a different scenario than
	// the author wrote — same policy as the gated timeline fields.
	if w.Kind != WorkloadSnapshot {
		if w.PieceLength != 0 || w.ConnCap != 0 || w.UpRate != 0 || w.DownRate != 0 ||
			w.WebSeeds != 0 || w.SeedRestartAt != 0 || w.SeedRestartDown != 0 {
			return fmt.Errorf("scenario %s: piece_length/conn_cap/up_rate/down_rate/web_seeds/seed_restart_* need the snapshot workload (got %q)",
				s.Name, w.Kind)
		}
	}
	switch w.Kind {
	case WorkloadSwarm, WorkloadChurnSwarm, WorkloadSnapshot:
		if w.FileSize <= 0 {
			return fmt.Errorf("scenario %s: file size %d not positive", s.Name, w.FileSize)
		}
		var seederGroup *GroupSpec
		for i := range s.Groups {
			if s.Groups[i].Name == w.SeederGroup {
				seederGroup = &s.Groups[i]
			}
		}
		if seederGroup == nil {
			return fmt.Errorf("scenario %s: unknown seeder group %q", s.Name, w.SeederGroup)
		}
		minSeeders := 1
		if w.Kind == WorkloadSnapshot && w.WebSeeds > 0 {
			minSeeders = 0 // web seeds carry a seederless cold fill
		}
		if w.Seeders < minSeeders || w.Seeders > seederGroup.Nodes {
			return fmt.Errorf("scenario %s: %d seeders outside [%d,%d] (group %q)",
				s.Name, w.Seeders, minSeeders, seederGroup.Nodes, seederGroup.Name)
		}
		if totalNodes-w.Seeders < 1 {
			return fmt.Errorf("scenario %s: no clients left after %d seeders", s.Name, w.Seeders)
		}
		if w.StartInterval < 0 {
			return fmt.Errorf("scenario %s: negative start interval", s.Name)
		}
		if w.Kind == WorkloadChurnSwarm {
			if w.ChurnFraction < 0 || w.ChurnFraction >= 1 {
				return fmt.Errorf("scenario %s: churn fraction %g outside [0,1)", s.Name, w.ChurnFraction)
			}
			if w.Session <= 0 || w.Downtime <= 0 {
				return fmt.Errorf("scenario %s: churn session/downtime must be positive", s.Name)
			}
		}
		if w.Kind == WorkloadSnapshot {
			if w.WebSeeds < 0 || w.WebSeeds > maxWebSeeds {
				return fmt.Errorf("scenario %s: %d web seeds outside [0,%d]", s.Name, w.WebSeeds, maxWebSeeds)
			}
			if w.UpRate < 0 || w.DownRate < 0 {
				return fmt.Errorf("scenario %s: negative rate cap (up %d, down %d)", s.Name, w.UpRate, w.DownRate)
			}
			if w.SeedRestartAt < 0 || w.SeedRestartDown < 0 {
				return fmt.Errorf("scenario %s: negative seed restart timing", s.Name)
			}
			if w.SeedRestartAt > 0 && w.Seeders < 1 {
				return fmt.Errorf("scenario %s: seed_restart_at needs at least one seeder", s.Name)
			}
			if w.SeedRestartDown > 0 && w.SeedRestartAt == 0 {
				return fmt.Errorf("scenario %s: seed_restart_down without seed_restart_at", s.Name)
			}
		}
	case WorkloadDHT:
		if totalNodes < 2 {
			return fmt.Errorf("scenario %s: dht needs at least 2 nodes", s.Name)
		}
		if w.Lookups < 1 {
			return fmt.Errorf("scenario %s: %d lookups not positive", s.Name, w.Lookups)
		}
	case WorkloadGossip:
		if totalNodes < 2 {
			return fmt.Errorf("scenario %s: gossip needs at least 2 nodes", s.Name)
		}
		if w.Fanout < 1 {
			return fmt.Errorf("scenario %s: fanout %d not positive", s.Name, w.Fanout)
		}
	case "":
		return fmt.Errorf("scenario %s: missing workload kind", s.Name)
	default:
		return fmt.Errorf("scenario %s: unknown workload kind %q (want %s)", s.Name, w.Kind,
			strings.Join([]string{WorkloadSwarm, WorkloadChurnSwarm, WorkloadSnapshot, WorkloadDHT, WorkloadGossip}, ", "))
	}
	return nil
}

func (s *Spec) validateEvent(ev EventSpec, groups map[string]bool) error {
	if ev.At < 0 {
		return fmt.Errorf("negative instant %v", ev.At)
	}
	if ev.For < 0 {
		return fmt.Errorf("negative duration %v", ev.For)
	}
	known := false
	for _, a := range actions {
		if a == ev.Action {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown action %q (want %s)", ev.Action, strings.Join(actions, ", "))
	}
	checkGroups := func(names []string, what string) error {
		if len(names) == 0 {
			return fmt.Errorf("%s: no groups named", what)
		}
		for _, g := range names {
			if !groups[g] {
				return fmt.Errorf("%s: unknown group %q", what, g)
			}
		}
		return nil
	}
	switch ev.Action {
	case ActionHeal, ActionLinkUp, ActionSetClass, ActionAddRule, ActionDelRule:
		// These have no auto-revert; silently ignoring a duration would
		// run a different scenario than the author wrote.
		if ev.For > 0 {
			return fmt.Errorf("%s does not support a duration (for); schedule the opposite event instead", ev.Action)
		}
	}
	// The rule fields belong to add-rule (and ID to del-rule); ignoring
	// them elsewhere would likewise run a different scenario than
	// written (e.g. a deny-prefix author setting rule: "deny").
	if ev.Action != ActionAddRule {
		if ev.Src != "" || ev.Dst != "" || ev.Rule != "" || ev.Copies != 0 {
			return fmt.Errorf("%s does not use the add-rule fields (src/dst/rule/copies)", ev.Action)
		}
		if ev.ID != 0 && ev.Action != ActionDelRule && ev.Action != ActionDenyPfx {
			return fmt.Errorf("%s does not use a rule id", ev.Action)
		}
	}
	switch ev.Action {
	case ActionAddRule, ActionDelRule:
		// The reverse of the check above: group/partition/link fields on
		// a rule event would likewise be silently ignored (add-rule
		// matches by src/dst, which may name a group).
		if len(ev.Groups) > 0 || len(ev.A) > 0 || len(ev.B) > 0 || ev.Class != "" || ev.Loss != 0 {
			return fmt.Errorf("%s does not use groups/a/b/class/loss; match by the src and dst fields", ev.Action)
		}
	}
	switch ev.Action {
	case ActionPartition, ActionHeal:
		if err := checkGroups(ev.A, ev.Action+" side a"); err != nil {
			return err
		}
		if err := checkGroups(ev.B, ev.Action+" side b"); err != nil {
			return err
		}
		for _, a := range ev.A {
			for _, b := range ev.B {
				if a == b {
					return fmt.Errorf("group %q on both sides of the %s", a, ev.Action)
				}
			}
		}
	case ActionSetClass:
		if err := checkGroups(ev.Groups, "set-class"); err != nil {
			return err
		}
		if _, ok := topo.ClassByName(ev.Class); !ok {
			return fmt.Errorf("set-class: unknown class %q", ev.Class)
		}
	case ActionLoss:
		if err := checkGroups(ev.Groups, "loss"); err != nil {
			return err
		}
		if ev.Loss < 0 || ev.Loss > 1 {
			return fmt.Errorf("loss %g outside [0,1]", ev.Loss)
		}
		if ev.For <= 0 {
			return fmt.Errorf("loss burst needs a positive duration (for)")
		}
	case ActionLinkDown, ActionLinkUp:
		if err := checkGroups(ev.Groups, ev.Action); err != nil {
			return err
		}
	case ActionAddRule:
		known := false
		for _, a := range ruleActions {
			if a == ev.Rule {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("add-rule: unknown rule body %q (want %s)", ev.Rule, strings.Join(ruleActions, ", "))
		}
		for _, side := range []string{ev.Src, ev.Dst} {
			if side == "" || groups[side] {
				continue
			}
			if _, err := ip.ParsePrefix(side); err != nil {
				return fmt.Errorf("add-rule: %q is neither a group nor a prefix: %w", side, err)
			}
		}
		if ev.ID < 0 {
			return fmt.Errorf("add-rule: negative rule id %d", ev.ID)
		}
		if ev.Copies < 0 || ev.Copies > maxRuleCopies {
			return fmt.Errorf("add-rule: %d copies outside [0,%d]", ev.Copies, maxRuleCopies)
		}
	case ActionDelRule:
		if ev.ID <= 0 {
			return fmt.Errorf("del-rule: needs a positive rule id")
		}
	case ActionDenyPfx:
		if err := checkGroups(ev.Groups, "deny-prefix"); err != nil {
			return err
		}
		if ev.ID < 0 {
			return fmt.Errorf("deny-prefix: negative rule id %d", ev.ID)
		}
		if ev.For == 0 && ev.ID == 0 {
			// Auto-assigned rule numbers are not knowable to the spec
			// author, so a permanent deny without a pinned id could
			// never be lifted by del-rule — reject rather than let the
			// author believe it is revertible.
			return fmt.Errorf("deny-prefix: a permanent deny (no for) needs a pinned id so a del-rule can lift it")
		}
	}
	return nil
}

// TotalNodes sums the spec's group populations.
func (s *Spec) TotalNodes() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Nodes
	}
	return n
}
