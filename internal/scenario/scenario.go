// Package scenario implements the declarative end-to-end scenario DSL: a
// .dsn file is a txtar archive whose "spec" section names a deployment,
// protocol and seeds, whose optional "script" section injects churn,
// mobility and failures, and whose "assert" section states the expected
// outcome — delivery ratio, round bounds against the paper's Lemma 1 and
// Theorem 1, energy budgets, quiescence, collision freedom. Optional
// "metrics" and "timeline" sections pin golden outputs.
//
// One Runner executes a scenario through the existing workload → core →
// broadcast → radio stack and evaluates the assertions with structured
// failure messages. The same runner backs three entry points: the go test
// corpus walker (internal/scenario/corpus_test.go, with -update for
// goldens); every CLI simulation — dynsim (its flags are an in-memory
// scenario; -scenario loads a file), nettool scenario run|verify and
// nettool metrics; and flight integration — every run can emit a .dsfr
// recording whose offline re-verification (flight.Verify plus
// recording-based assertion evaluation) must agree with the live run. See
// docs/scenarios.md.
package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"dynsens/internal/graph"
)

// Section names a .dsn file may contain.
const (
	secSpec     = "spec"
	secScript   = "script"
	secAssert   = "assert"
	secMetrics  = "metrics"
	secTimeline = "timeline"
)

// Protocols a spec may name.
var protocols = map[string]bool{
	"icff": true, "cff": true, "dfo": true, "pflood": true,
	"multicast": true, "gather": true, "discovery": true,
}

// Deployment kinds a spec may name.
var deployments = map[string]bool{"rgg": true, "grid": true}

// Spec is the parsed "spec" section: everything needed to rebuild the
// deployment and run the protocol. Zero values mean "use the default";
// Format omits them, so parse→format→parse is a fixpoint.
type Spec struct {
	// Name identifies the scenario in reports (default: the file base).
	Name string
	// Deploy picks the deployment generator: "rgg" (incremental random
	// geometric, the paper's self-constructing placement; default) or
	// "grid" (deterministic lattice).
	Deploy string
	// N is the node count; Side the region side in 100 m units.
	N, Side int
	// Seed drives deployment placement and every derived stream.
	Seed int64
	// Protocol is one of icff|cff|dfo|pflood|multicast|gather|discovery
	// (default icff).
	Protocol string
	// Channels is the radio channel count k (default 1).
	Channels int
	// Workers is the radio engine shard-worker count (0 = engine
	// default). Purely a wall-clock knob: results are byte-identical.
	Workers int
	// Runtime selects the execution substrate: "kernel" (default, the
	// in-process shard-parallel engine) or "dist" (the distributed actor
	// runtime of internal/dist, plan-family protocols only). Results and
	// recordings are byte-identical across runtimes for the same spec.
	Runtime string
	// Source is the broadcast source node (default 0, the sink).
	Source graph.NodeID
	// LossRate drops each frame independently; LossSeed drives the coins.
	LossRate float64
	LossSeed int64
	// Forward is the pflood rebroadcast probability; MaxDelay its backoff
	// bound.
	Forward  float64
	MaxDelay int
	// Group is the multicast group ID (default 1); GroupFrac the random
	// membership probability (default 0.3).
	Group     int
	GroupFrac float64
	// Joiner is the discovery protagonist (default -1 = the highest node
	// ID, i.e. the most recent arrival).
	Joiner graph.NodeID
}

func (s Spec) protocol() string {
	if s.Protocol == "" {
		return "icff"
	}
	return s.Protocol
}

func (s Spec) deploy() string {
	if s.Deploy == "" {
		return "rgg"
	}
	return s.Deploy
}

func (s Spec) channels() int {
	if s.Channels <= 0 {
		return 1
	}
	return s.Channels
}

func (s Spec) group() int {
	if s.Group <= 0 {
		return 1
	}
	return s.Group
}

func (s Spec) groupFrac() float64 {
	if s.GroupFrac <= 0 {
		return 0.3
	}
	return s.GroupFrac
}

// Script verbs.
const (
	// VerbChurn generates a seeded join/leave trace before the run:
	// "churn <steps> <leave-frac>".
	VerbChurn = "churn"
	// VerbMobility generates a seeded movement trace before the run:
	// "mobility <moves> <wander>".
	VerbMobility = "mobility"
	// VerbFailFrac kills a random fraction of nodes mid-run:
	// "failfrac <frac>".
	VerbFailFrac = "failfrac"
	// VerbFail kills one node at a round: "fail <node> <round>".
	VerbFail = "fail"
	// VerbCut cuts one link at a round: "cut <a> <b> <round>".
	VerbCut = "cut"
)

// Step is one parsed script line.
type Step struct {
	Verb  string
	Node  graph.NodeID // fail: victim; cut: endpoint A
	Peer  graph.NodeID // cut: endpoint B
	Round int          // fail, cut
	Steps int          // churn: steps; mobility: moves
	Frac  float64      // churn: leave-frac; mobility: wander; failfrac: frac
}

func (st Step) format() string {
	switch st.Verb {
	case VerbChurn, VerbMobility:
		return fmt.Sprintf("%s %d %s", st.Verb, st.Steps, formatFloat(st.Frac))
	case VerbFailFrac:
		return fmt.Sprintf("%s %s", st.Verb, formatFloat(st.Frac))
	case VerbFail:
		return fmt.Sprintf("%s %d %d", st.Verb, st.Node, st.Round)
	case VerbCut:
		return fmt.Sprintf("%s %d %d %d", st.Verb, st.Node, st.Peer, st.Round)
	}
	return st.Verb
}

// Scenario is one fully parsed .dsn file.
type Scenario struct {
	// Path is where the scenario was loaded from ("" when parsed from
	// memory); reports use it as the failure prefix.
	Path string
	// Comment is the free text above the first section marker.
	Comment string
	Spec    Spec
	Script  []Step
	Asserts []Assertion
	// GoldenMetrics / GoldenTimeline hold the optional pinned sections
	// ("" = section absent; compare with Result outputs, refresh with
	// Runner.Update).
	GoldenMetrics  string
	GoldenTimeline string
}

// Name returns the spec name, falling back to the file base.
func (s *Scenario) Name() string {
	if s.Spec.Name != "" {
		return s.Spec.Name
	}
	if s.Path != "" {
		base := s.Path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		return strings.TrimSuffix(base, ".dsn")
	}
	return "scenario"
}

// Load reads and parses a .dsn file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.Path = path
	return s, nil
}

// Parse decodes a .dsn txtar archive and validates it.
func Parse(data []byte) (*Scenario, error) {
	a := parseArchive(data)
	s := &Scenario{Comment: a.Comment, Spec: Spec{Joiner: -1}}
	seen := map[string]bool{}
	for _, sec := range a.Sections {
		if seen[sec.Name] {
			return nil, fmt.Errorf("scenario: duplicate section %q", sec.Name)
		}
		seen[sec.Name] = true
		var err error
		switch sec.Name {
		case secSpec:
			err = s.parseSpec(sec.Data)
		case secScript:
			err = s.parseScript(sec.Data)
		case secAssert:
			err = s.parseAsserts(sec.Data)
		case secMetrics:
			s.GoldenMetrics = normalizeBlock(sec.Data)
		case secTimeline:
			s.GoldenTimeline = normalizeBlock(sec.Data)
		default:
			err = fmt.Errorf("scenario: unknown section %q", sec.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	if !seen[secSpec] {
		return nil, fmt.Errorf("scenario: missing required %q section", secSpec)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// specLines splits a section into trimmed, comment-stripped lines.
func specLines(data string) []string {
	var out []string
	for _, line := range strings.Split(data, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}

func (s *Scenario) parseSpec(data string) error {
	for _, line := range specLines(data) {
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("scenario: spec line %q is not key = value", line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			s.Spec.Name = val
		case "deploy":
			s.Spec.Deploy = val
		case "n":
			s.Spec.N, err = parseInt(val)
		case "side":
			s.Spec.Side, err = parseInt(val)
		case "seed":
			s.Spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "protocol":
			s.Spec.Protocol = val
		case "channels":
			s.Spec.Channels, err = parseInt(val)
		case "workers":
			s.Spec.Workers, err = parseInt(val)
		case "runtime":
			s.Spec.Runtime = val
		case "source":
			s.Spec.Source, err = parseNodeID(val)
		case "loss":
			s.Spec.LossRate, err = strconv.ParseFloat(val, 64)
		case "loss-seed":
			s.Spec.LossSeed, err = strconv.ParseInt(val, 10, 64)
		case "forward":
			s.Spec.Forward, err = strconv.ParseFloat(val, 64)
		case "max-delay":
			s.Spec.MaxDelay, err = parseInt(val)
		case "group":
			s.Spec.Group, err = parseInt(val)
		case "group-frac":
			s.Spec.GroupFrac, err = strconv.ParseFloat(val, 64)
		case "joiner":
			s.Spec.Joiner, err = parseNodeID(val)
		default:
			return fmt.Errorf("scenario: unknown spec key %q", key)
		}
		if err != nil {
			return fmt.Errorf("scenario: spec %s: %v", key, err)
		}
	}
	return nil
}

func (s *Scenario) parseScript(data string) error {
	for _, line := range specLines(data) {
		f := strings.Fields(line)
		st := Step{Verb: f[0]}
		var err error
		switch st.Verb {
		case VerbChurn, VerbMobility:
			if len(f) != 3 {
				return fmt.Errorf("scenario: %s wants <steps> <frac>, got %q", st.Verb, line)
			}
			if st.Steps, err = parseInt(f[1]); err == nil {
				st.Frac, err = strconv.ParseFloat(f[2], 64)
			}
		case VerbFailFrac:
			if len(f) != 2 {
				return fmt.Errorf("scenario: failfrac wants <frac>, got %q", line)
			}
			st.Frac, err = strconv.ParseFloat(f[1], 64)
		case VerbFail:
			if len(f) != 3 {
				return fmt.Errorf("scenario: fail wants <node> <round>, got %q", line)
			}
			if st.Node, err = parseNodeID(f[1]); err == nil {
				st.Round, err = parseInt(f[2])
			}
		case VerbCut:
			if len(f) != 4 {
				return fmt.Errorf("scenario: cut wants <a> <b> <round>, got %q", line)
			}
			if st.Node, err = parseNodeID(f[1]); err == nil {
				if st.Peer, err = parseNodeID(f[2]); err == nil {
					st.Round, err = parseInt(f[3])
				}
			}
		default:
			return fmt.Errorf("scenario: unknown script verb %q", st.Verb)
		}
		if err != nil {
			return fmt.Errorf("scenario: script %q: %v", line, err)
		}
		s.Script = append(s.Script, st)
	}
	return nil
}

func (s *Scenario) parseAsserts(data string) error {
	for _, line := range specLines(data) {
		a, err := ParseAssertion(line)
		if err != nil {
			return err
		}
		s.Asserts = append(s.Asserts, a)
	}
	return nil
}

// validate cross-checks the parsed scenario.
func (s *Scenario) validate() error {
	sp := &s.Spec
	if sp.N <= 0 {
		return fmt.Errorf("scenario: spec needs n > 0")
	}
	if sp.Side <= 0 {
		return fmt.Errorf("scenario: spec needs side > 0")
	}
	if !protocols[sp.protocol()] {
		return fmt.Errorf("scenario: unknown protocol %q", sp.Protocol)
	}
	if !deployments[sp.deploy()] {
		return fmt.Errorf("scenario: unknown deploy %q (rgg|grid)", sp.Deploy)
	}
	switch sp.Runtime {
	case "", "kernel":
	case "dist":
		if !FlightCapable(sp.protocol()) {
			return fmt.Errorf("scenario: runtime = dist supports icff|cff|dfo|multicast|pflood, not %s", sp.protocol())
		}
	default:
		return fmt.Errorf("scenario: unknown runtime %q (kernel|dist)", sp.Runtime)
	}
	if !(sp.LossRate >= 0 && sp.LossRate <= 1) {
		return fmt.Errorf("scenario: loss %v out of [0,1]", sp.LossRate)
	}
	if !(sp.Forward >= 0 && sp.Forward <= 1) {
		return fmt.Errorf("scenario: forward %v out of [0,1]", sp.Forward)
	}
	if !(sp.GroupFrac >= 0 && sp.GroupFrac <= 1) {
		return fmt.Errorf("scenario: group-frac %v out of [0,1]", sp.GroupFrac)
	}
	traces := 0
	for _, st := range s.Script {
		switch st.Verb {
		case VerbChurn, VerbMobility:
			traces++
			if st.Steps <= 0 || !(st.Frac >= 0 && st.Frac <= 1) {
				return fmt.Errorf("scenario: %s %d %v out of range", st.Verb, st.Steps, st.Frac)
			}
			if sp.deploy() != "rgg" {
				return fmt.Errorf("scenario: %s traces need deploy = rgg", st.Verb)
			}
		case VerbFailFrac:
			if !(st.Frac >= 0 && st.Frac <= 1) {
				return fmt.Errorf("scenario: failfrac %v out of [0,1]", st.Frac)
			}
		case VerbFail, VerbCut:
			if st.Round <= 0 {
				return fmt.Errorf("scenario: %s round must be >= 1", st.Verb)
			}
		}
	}
	if traces > 1 {
		return fmt.Errorf("scenario: at most one churn/mobility trace per scenario")
	}
	// Protocol-specific rules: reject spec/script combinations the target
	// engine would silently ignore.
	switch sp.protocol() {
	case "pflood":
		if !(sp.Forward > 0) {
			return fmt.Errorf("scenario: pflood needs forward > 0")
		}
	case "gather":
		if sp.LossRate != 0 {
			return fmt.Errorf("scenario: gather does not model frame loss")
		}
		if s.hasVerb(VerbCut) {
			return fmt.Errorf("scenario: gather does not model link cuts")
		}
	case "discovery":
		if sp.LossRate != 0 || s.hasVerb(VerbCut) || s.hasVerb(VerbFail) || s.hasVerb(VerbFailFrac) {
			return fmt.Errorf("scenario: discovery supports churn/mobility scripts only")
		}
		if s.GoldenTimeline != "" {
			return fmt.Errorf("scenario: discovery runs are not traced; timeline goldens unsupported")
		}
	}
	return nil
}

func (s *Scenario) hasVerb(verb string) bool {
	for _, st := range s.Script {
		if st.Verb == verb {
			return true
		}
	}
	return false
}

// Format renders the scenario in canonical form: spec keys in fixed order
// with defaults omitted, one script step and assertion per line, golden
// sections verbatim. Parse(Format(s)) is equivalent to s, and
// Format(Parse(Format(s))) is byte-identical (see FuzzScenarioParse).
func (s *Scenario) Format() []byte {
	var spec strings.Builder
	sp := s.Spec
	put := func(key, val string) { fmt.Fprintf(&spec, "%s = %s\n", key, val) }
	if sp.Name != "" {
		put("name", sp.Name)
	}
	if sp.Deploy != "" {
		put("deploy", sp.Deploy)
	}
	put("n", strconv.Itoa(sp.N))
	put("side", strconv.Itoa(sp.Side))
	if sp.Seed != 0 {
		put("seed", strconv.FormatInt(sp.Seed, 10))
	}
	if sp.Protocol != "" {
		put("protocol", sp.Protocol)
	}
	if sp.Channels != 0 {
		put("channels", strconv.Itoa(sp.Channels))
	}
	if sp.Workers != 0 {
		put("workers", strconv.Itoa(sp.Workers))
	}
	if sp.Runtime != "" {
		put("runtime", sp.Runtime)
	}
	if sp.Source != 0 {
		put("source", strconv.Itoa(int(sp.Source)))
	}
	if sp.LossRate != 0 {
		put("loss", formatFloat(sp.LossRate))
	}
	if sp.LossSeed != 0 {
		put("loss-seed", strconv.FormatInt(sp.LossSeed, 10))
	}
	if sp.Forward != 0 {
		put("forward", formatFloat(sp.Forward))
	}
	if sp.MaxDelay != 0 {
		put("max-delay", strconv.Itoa(sp.MaxDelay))
	}
	if sp.Group != 0 {
		put("group", strconv.Itoa(sp.Group))
	}
	if sp.GroupFrac != 0 {
		put("group-frac", formatFloat(sp.GroupFrac))
	}
	if sp.Joiner != -1 {
		put("joiner", strconv.Itoa(int(sp.Joiner)))
	}

	a := archive{Comment: s.Comment}
	a.Sections = append(a.Sections, section{Name: secSpec, Data: spec.String()})
	if len(s.Script) > 0 {
		var b strings.Builder
		for _, st := range s.Script {
			b.WriteString(st.format())
			b.WriteByte('\n')
		}
		a.Sections = append(a.Sections, section{Name: secScript, Data: b.String()})
	}
	if len(s.Asserts) > 0 {
		var b strings.Builder
		for _, as := range s.Asserts {
			b.WriteString(as.String())
			b.WriteByte('\n')
		}
		a.Sections = append(a.Sections, section{Name: secAssert, Data: b.String()})
	}
	if s.GoldenMetrics != "" {
		a.Sections = append(a.Sections, section{Name: secMetrics, Data: s.GoldenMetrics})
	}
	if s.GoldenTimeline != "" {
		a.Sections = append(a.Sections, section{Name: secTimeline, Data: s.GoldenTimeline})
	}
	return formatArchive(a)
}

func parseInt(s string) (int, error) { return strconv.Atoi(s) }

func parseNodeID(s string) (graph.NodeID, error) {
	v, err := strconv.Atoi(s)
	return graph.NodeID(v), err
}

// formatFloat renders floats in the shortest round-tripping form.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// sortedKeys returns the sorted keys of a string-keyed map (report
// rendering helper).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
