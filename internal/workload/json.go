package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/jsonscan"
	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// fileFormat is the on-disk JSON schema for a Workload. It stores the raw
// model (tasks, items, E, Tr) rather than generator parameters, so
// hand-written and externally produced workloads round-trip too.
type fileFormat struct {
	Name     string      `json:"name"`
	Params   Params      `json:"params"`
	Tasks    []string    `json:"tasks"`
	Items    []itemJSON  `json:"items"`
	Exec     [][]float64 `json:"exec"`     // [machine][task]
	Transfer [][]float64 `json:"transfer"` // [pair][item]
}

type itemJSON struct {
	Producer int     `json:"producer"`
	Consumer int     `json:"consumer"`
	Size     float64 `json:"size"`
}

// Encode writes w as indented JSON.
func Encode(wr io.Writer, w *Workload) error {
	ff := fileFormat{
		Name:     w.Name,
		Params:   w.Params,
		Exec:     w.System.ExecMatrix(),
		Transfer: w.System.TransferMatrix(),
	}
	for t := 0; t < w.Graph.NumTasks(); t++ {
		ff.Tasks = append(ff.Tasks, w.Graph.Name(taskgraph.TaskID(t)))
	}
	for _, it := range w.Graph.Items() {
		ff.Items = append(ff.Items, itemJSON{
			Producer: int(it.Producer),
			Consumer: int(it.Consumer),
			Size:     it.Size,
		})
	}
	enc := json.NewEncoder(wr)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// Decode reads a Workload previously written by Encode (or hand-authored in
// the same schema) and re-validates the model. It is the entry point for
// untrusted input — the serving layer (internal/serve) accepts uploaded
// workloads — so every structural fault must surface as an error, never a
// panic: task references, matrix shapes and cost signs are all checked
// here or by the graph/platform constructors Decode defers to.
//
// Decode reads r to its end and accepts exactly the documents
// encoding/json would decode into the schema, reading them identically,
// with one exception: a schema member repeated in one object ("items"
// twice, or "tasks" and "TASKS"), which encoding/json merges, is an error
// here. Bytes after the document are ignored. DESIGN.md ("Decoding
// uploads") gives the whole contract.
func Decode(r io.Reader) (*Workload, error) {
	var buf bytes.Buffer
	if n, ok := r.(interface{ Len() int }); ok {
		buf.Grow(n.Len() + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(r)
	w, err := DecodeBytes(buf.Bytes())
	if err != nil && readErr != nil {
		// The document was cut short: report why.
		return nil, fmt.Errorf("workload: decode: %w", readErr)
	}
	return w, err
}

// DecodeBytes is Decode for a document already in memory. It reads doc in
// one pass, parsing each number where it lies.
func DecodeBytes(doc []byte) (*Workload, error) {
	ff, err := parseDocument(doc)
	if err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	return ff.build()
}

// build checks a parsed document and assembles its Workload.
func (ff *fileFormat) build() (*Workload, error) {
	if len(ff.Tasks) == 0 {
		return nil, fmt.Errorf("workload: decode: no tasks")
	}
	if len(ff.Exec) == 0 {
		return nil, fmt.Errorf("workload: decode: no machines (empty exec matrix)")
	}
	for i, it := range ff.Items {
		if it.Producer < 0 || it.Producer >= len(ff.Tasks) {
			return nil, fmt.Errorf("workload: decode: item %d: producer %d references no task (have %d tasks)", i, it.Producer, len(ff.Tasks))
		}
		if it.Consumer < 0 || it.Consumer >= len(ff.Tasks) {
			return nil, fmt.Errorf("workload: decode: item %d: consumer %d references no task (have %d tasks)", i, it.Consumer, len(ff.Tasks))
		}
	}
	b := taskgraph.NewBuilder(len(ff.Tasks))
	for _, name := range ff.Tasks {
		b.AddTask(name)
	}
	for _, it := range ff.Items {
		b.AddItem(taskgraph.TaskID(it.Producer), taskgraph.TaskID(it.Consumer), it.Size)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	sys, err := platform.New(g.NumTasks(), g.NumItems(), ff.Exec, ff.Transfer)
	if err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	return &Workload{Name: ff.Name, Params: ff.Params, Graph: g, System: sys}, nil
}

// errRepeated marks a schema member that appears twice in one object.
var errRepeated = errors.New("member repeated in one object")

// members matches an object's member names against a schema's, as
// encoding/json matches them to struct fields (bytes.EqualFold), and
// rejects a second member matching the same field.
type members struct {
	names []string
	seen  uint32
}

// field returns the index in m.names that name matches, or -1.
func (m *members) field(name []byte) (int, error) {
	for i, n := range m.names {
		if bytes.EqualFold(name, []byte(n)) {
			if m.seen&(1<<i) != 0 {
				return -1, fmt.Errorf("%q: %w", n, errRepeated)
			}
			m.seen |= 1 << i
			return i, nil
		}
	}
	return -1, nil
}

var (
	documentNames = []string{"name", "params", "tasks", "items", "exec", "transfer"}
	paramsNames   = []string{"Tasks", "Machines", "Connectivity", "Heterogeneity", "TaskRange", "CCR", "Scale", "Layers", "Seed"}
	itemNames     = []string{"producer", "consumer", "size"}
)

// parseDocument reads doc into the schema as encoding/json would — the
// test-only reference decoder does exactly that — except that it rejects
// repeated members. Each matrix row is allocated once, at its final size.
func parseDocument(doc []byte) (fileFormat, error) {
	var ff fileFormat
	var row []float64 // scratch for the row being read
	s := jsonscan.New(doc)
	m := members{names: documentNames}
	err := s.Object(func(name []byte) error {
		f, err := m.field(name)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			ff.Name, err = s.Str()
		case 1:
			err = parseParams(s, &ff.Params)
		case 2:
			ff.Tasks, err = parseList(s, func() (string, error) { return s.Str() })
		case 3:
			ff.Items, err = parseList(s, func() (itemJSON, error) { return parseItem(s) })
		case 4:
			ff.Exec, err = parseList(s, func() ([]float64, error) { return parseRow(s, &row) })
		case 5:
			ff.Transfer, err = parseList(s, func() ([]float64, error) { return parseRow(s, &row) })
		default:
			return s.Skip()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", documentNames[f], err)
		}
		return nil
	})
	return ff, err
}

// parseList reads an array whose elements elem reads: nil for a null, a
// non-nil slice for any array, as encoding/json fills a slice.
func parseList[T any](s *jsonscan.Scanner, elem func() (T, error)) ([]T, error) {
	var out []T
	present, err := s.Array(func() error {
		v, err := elem()
		out = append(out, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	if present && out == nil {
		out = []T{}
	}
	return out, nil
}

// parseRow reads one matrix row through the scratch buffer *row, so the
// row it returns is allocated once.
func parseRow(s *jsonscan.Scanner, row *[]float64) ([]float64, error) {
	buf := (*row)[:0]
	present, err := s.Array(func() error {
		v, err := s.Float()
		buf = append(buf, v)
		return err
	})
	*row = buf
	if err != nil || !present {
		return nil, err
	}
	return append(make([]float64, 0, len(buf)), buf...), nil
}

func parseItem(s *jsonscan.Scanner) (itemJSON, error) {
	var it itemJSON
	m := members{names: itemNames}
	err := s.Object(func(name []byte) error {
		f, err := m.field(name)
		if err != nil {
			return err
		}
		var n int64
		switch f {
		case 0:
			n, err = s.Int(strconv.IntSize)
			it.Producer = int(n)
		case 1:
			n, err = s.Int(strconv.IntSize)
			it.Consumer = int(n)
		case 2:
			it.Size, err = s.Float()
		default:
			err = s.Skip()
		}
		return err
	})
	return it, err
}

func parseParams(s *jsonscan.Scanner, p *Params) error {
	m := members{names: paramsNames}
	return s.Object(func(name []byte) error {
		f, err := m.field(name)
		if err != nil {
			return err
		}
		var n int64
		switch f {
		case 0:
			n, err = s.Int(strconv.IntSize)
			p.Tasks = int(n)
		case 1:
			n, err = s.Int(strconv.IntSize)
			p.Machines = int(n)
		case 2:
			p.Connectivity, err = s.Float()
		case 3:
			p.Heterogeneity, err = s.Float()
		case 4:
			p.TaskRange, err = s.Float()
		case 5:
			p.CCR, err = s.Float()
		case 6:
			p.Scale, err = s.Float()
		case 7:
			n, err = s.Int(strconv.IntSize)
			p.Layers = int(n)
		case 8:
			p.Seed, err = s.Int(64)
		default:
			err = s.Skip()
		}
		return err
	})
}
