package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

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
// repeated members. Each matrix row is allocated once, at its final size,
// and a large matrix is read on up to GOMAXPROCS goroutines.
func parseDocument(doc []byte) (fileFormat, error) {
	return parseDocumentOn(doc, runtime.GOMAXPROCS(0), matrixChunkBytes)
}

// parseDocumentOn is parseDocument reading each matrix on at most workers
// goroutines, each given at least chunkBytes of it; workers 1 is the
// sequential read. Every split reads the document as that one does.
func parseDocumentOn(doc []byte, workers, chunkBytes int) (fileFormat, error) {
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
			ff.Exec, err = parseMatrix(s, doc, &row, workers, chunkBytes)
		case 5:
			ff.Transfer, err = parseMatrix(s, doc, &row, workers, chunkBytes)
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

// matrixChunkBytes is the least share of a matrix, in document bytes,
// worth a goroutine of its own: about 0.3 ms of parsing at the sequential
// read's speed, against a few microseconds to start and join a goroutine.
const matrixChunkBytes = 64 << 10

// parseMatrix reads a matrix member (exec or transfer) at the Scanner. A
// matrix of at least two chunks' worth of bytes is cut into rows by
// splitRows, and parseRows reads them on up to workers goroutines. A shape
// splitRows refuses, or any row that fails to read, sends the whole member
// to the sequential read, which then decides acceptance and error text.
// Both reads apply parseRow to the same bytes of each row, so they agree
// value for value.
func parseMatrix(s *jsonscan.Scanner, doc []byte, row *[]float64, workers, chunkBytes int) ([][]float64, error) {
	s.Peek()
	at := s.Offset()
	if workers > 1 && len(doc)-at >= 2*chunkBytes {
		if rows, end, ok := splitRows(doc, at); ok {
			if m, ok := parseRows(doc, rows, min(workers, (end-at)/chunkBytes, len(rows))); ok {
				s.Seek(end)
				return m, nil
			}
		}
	}
	return parseList(s, func() ([]float64, error) { return parseRow(s, row) })
}

// splitRows cuts the array of arrays starting at doc[at] into its rows by
// bytes alone, returning each row's byte range and the offset just past
// the outer ']'. A row runs from its '[' to the first ']' after it; only
// JSON whitespace and one comma may stand between two rows. Any other
// shape — no '[' at doc[at], an empty matrix, a null or non-array row, a
// missing or doubled separator, a document cut short — is refused. A row
// that holds a string or an array, where a ']' can hide, is caught when
// parseRow reads the range, as parseRow fails at the first element that
// is neither a number nor null.
func splitRows(doc []byte, at int) (rows [][2]int, end int, ok bool) {
	if at >= len(doc) || doc[at] != '[' {
		return nil, 0, false
	}
	i := skipSpace(doc, at+1)
	for {
		if i >= len(doc) || doc[i] != '[' {
			return nil, 0, false
		}
		j := bytes.IndexByte(doc[i:], ']')
		if j < 0 {
			return nil, 0, false
		}
		rows = append(rows, [2]int{i, i + j + 1})
		if i = skipSpace(doc, i+j+1); i >= len(doc) {
			return nil, 0, false
		}
		switch doc[i] {
		case ',':
			i = skipSpace(doc, i+1)
		case ']':
			return rows, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(doc []byte, i int) int {
	for i < len(doc) && (doc[i] == ' ' || doc[i] == '\t' || doc[i] == '\n' || doc[i] == '\r') {
		i++
	}
	return i
}

// parseRows reads the rows splitRows found on n goroutines (the calling
// one among them), each taking a run of consecutive rows; a matrix's rows
// are all one length in any document that builds. It reports false if n
// is below 2 or any row fails to read.
func parseRows(doc []byte, rows [][2]int, n int) ([][]float64, bool) {
	if n < 2 {
		return nil, false
	}
	out := make([][]float64, len(rows))
	var failed atomic.Bool
	read := func(lo, hi int) {
		var row []float64
		for r := lo; r < hi && !failed.Load(); r++ {
			v, err := parseRow(jsonscan.New(doc[rows[r][0]:rows[r][1]]), &row)
			if err != nil {
				failed.Store(true)
				return
			}
			out[r] = v
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(k*len(rows)/n, (k+1)*len(rows)/n)
		}()
	}
	read(0, len(rows)/n)
	wg.Wait()
	return out, !failed.Load()
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
