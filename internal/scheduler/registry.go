package scheduler

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Kind classifies a registered scheduler.
type Kind int

const (
	// Metaheuristic schedulers iterate under a Budget (SE, GA, SA, tabu).
	Metaheuristic Kind = iota
	// Constructive schedulers build one solution in a single pass and
	// ignore the Budget's bounds (HEFT, Min-Min, …).
	Constructive
)

// String returns "metaheuristic" or "constructive".
func (k Kind) String() string {
	switch k {
	case Metaheuristic:
		return "metaheuristic"
	case Constructive:
		return "constructive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OpenFunc builds a ready-to-step search engine from a resolved Config —
// the algorithm side of the registry's Open. The returned Stepper is
// positioned before its first iteration.
type OpenFunc func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error)

// RestoreFunc rebuilds a search engine from the payload of a Snapshot
// taken on the same (graph, system) pair — the algorithm side of the
// registry's Restore. Corrupted or mismatched payloads must error, never
// panic.
type RestoreFunc func(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error)

// Info describes one registry entry.
type Info struct {
	// Name is the registry key ("se", "heft", …).
	Name string
	// Kind classifies the algorithm.
	Kind Kind
	// Summary is a one-line description for -list-algos output.
	Summary string
}

type registryEntry struct {
	info    Info
	open    OpenFunc
	restore RestoreFunc
}

var (
	regMu    sync.RWMutex
	registry = map[string]registryEntry{}
)

// Register adds a scheduler's engine hooks under name. It panics on an
// empty name, a nil hook, or a duplicate registration — all programmer
// errors at package-init time.
func Register(name string, kind Kind, summary string, open OpenFunc, restore RestoreFunc) {
	if name == "" {
		panic("scheduler: Register with empty name")
	}
	if open == nil || restore == nil {
		panic(fmt.Sprintf("scheduler: Register(%q) with nil open/restore hook", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheduler: Register(%q) called twice", name))
	}
	registry[name] = registryEntry{
		info:    Info{Name: name, Kind: kind, Summary: summary},
		open:    open,
		restore: restore,
	}
}

func lookup(name string) (registryEntry, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return registryEntry{}, fmt.Errorf("scheduler: unknown algorithm %q (registered: %v)", name, Names())
	}
	return e, nil
}

// Names returns every registered name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Describe returns the Info for one registered name.
func Describe(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e.info, ok
}

// ParseNames splits a comma-separated algorithm list, trims whitespace
// around each entry, drops empty entries, and validates every name
// against the registry — the shared parser behind the CLIs' -algos flags.
// Duplicate names are rejected: they would produce indistinguishable
// series and merged win counts downstream.
func ParseNames(csv string) ([]string, error) {
	var names []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(csv, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, ok := Describe(name); !ok {
			return nil, fmt.Errorf("scheduler: unknown algorithm %q (registered: %v)", name, Names())
		}
		if seen[name] {
			return nil, fmt.Errorf("scheduler: algorithm %q listed twice", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("scheduler: empty algorithm list %q", csv)
	}
	return names, nil
}

// List formats every registry entry as a table — the shared body of the
// CLIs' -list-algos output.
func List() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-13s %s\n", "name", "kind", "description")
	for _, info := range Infos() {
		fmt.Fprintf(&b, "%-10s %-13s %s\n", info.Name, info.Kind, info.Summary)
	}
	return b.String()
}

// Infos returns every registry entry's Info, sorted by kind
// (metaheuristics first) then name.
func Infos() []Info {
	regMu.RLock()
	infos := make([]Info, 0, len(registry))
	for _, e := range registry {
		infos = append(infos, e.info)
	}
	regMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Kind != infos[j].Kind {
			return infos[i].Kind < infos[j].Kind
		}
		return infos[i].Name < infos[j].Name
	})
	return infos
}
