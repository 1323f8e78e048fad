package sensitive

import (
	"fmt"
	"sort"
)

// Event is one observed sensitive-API invocation. It mirrors the device
// monitor's event shape without importing the device package (the corpus
// depends on this package, and the device depends on corpus fixtures in its
// tests).
type Event struct {
	API        string
	Class      string
	InFragment bool
	Activity   string
}

// Mark is a Table II cell: how an app invokes a sensitive API.
type Mark int

const (
	// MarkNone means the API was not observed for the app.
	MarkNone Mark = iota
	// MarkActivity means invoked by Activity code only (Table II ●).
	MarkActivity
	// MarkFragment means invoked by Fragment code only (Table II ◐).
	MarkFragment
	// MarkBoth means invoked by both (Table II ⊙).
	MarkBoth
)

// String renders the Table II symbol (ASCII fallback forms are available via
// ASCII()).
func (m Mark) String() string {
	switch m {
	case MarkActivity:
		return "●"
	case MarkFragment:
		return "◐"
	case MarkBoth:
		return "⊙"
	default:
		return " "
	}
}

// ASCII renders a plain-text form: A, F, B or blank.
func (m Mark) ASCII() string {
	switch m {
	case MarkActivity:
		return "A"
	case MarkFragment:
		return "F"
	case MarkBoth:
		return "B"
	default:
		return "."
	}
}

// Usage aggregates the observations of one API within one app.
type Usage struct {
	API        string
	ByActivity bool
	ByFragment bool
	// Count is the raw number of observed invocation events.
	Count int
	// Classes lists the invoking classes, sorted.
	Classes []string
}

// Mark folds the attribution flags into a Table II cell.
func (u Usage) Mark() Mark {
	switch {
	case u.ByActivity && u.ByFragment:
		return MarkBoth
	case u.ByFragment:
		return MarkFragment
	case u.ByActivity:
		return MarkActivity
	default:
		return MarkNone
	}
}

// Collector accumulates sensitive events for one app run. Plug Observe into
// device.Options.Monitor.
type Collector struct {
	app   string
	byAPI map[string]*apiRecord
}

// apiRecord is one API's aggregate: the usage counters and the set of
// invoking classes Usages sorts into Usage.Classes.
type apiRecord struct {
	usage   Usage
	classes map[string]bool
}

// NewCollector returns a collector for the given app package.
func NewCollector(appPkg string) *Collector {
	return &Collector{
		app:   appPkg,
		byAPI: make(map[string]*apiRecord),
	}
}

// App returns the application package the collector belongs to.
func (c *Collector) App() string { return c.app }

// Observe records one sensitive event.
func (c *Collector) Observe(e Event) {
	r := c.byAPI[e.API]
	if r == nil {
		r = &apiRecord{usage: Usage{API: e.API}, classes: make(map[string]bool)}
		c.byAPI[e.API] = r
	}
	r.usage.Count++
	if e.InFragment {
		r.usage.ByFragment = true
	} else {
		r.usage.ByActivity = true
	}
	if !r.classes[e.Class] {
		r.classes[e.Class] = true
	}
}

// Has reports whether the API has been observed at least once.
func (c *Collector) Has(api string) bool {
	_, ok := c.byAPI[api]
	return ok
}

// Usages returns the aggregated per-API usages in Table II row order.
func (c *Collector) Usages() []Usage {
	apis := make([]string, 0, len(c.byAPI))
	for api := range c.byAPI {
		apis = append(apis, api)
	}
	SortAPIs(apis)
	out := make([]Usage, 0, len(apis))
	for _, api := range apis {
		r := c.byAPI[api]
		u := r.usage
		for cls := range r.classes {
			u.Classes = append(u.Classes, cls)
		}
		sort.Strings(u.Classes)
		out = append(out, u)
	}
	return out
}

// Matrix is the cross-application view behind Table II.
type Matrix struct {
	// Apps are the column packages, in insertion order.
	Apps []string
	// APIs are the row keys in Table II order.
	APIs []string
	// cells maps "api|app" to the mark.
	cells map[string]Mark
}

// NewMatrix builds a matrix from per-app collectors.
func NewMatrix(collectors []*Collector) *Matrix {
	m := &Matrix{cells: make(map[string]Mark)}
	apiSet := make(map[string]bool)
	for _, c := range collectors {
		m.Apps = append(m.Apps, c.app)
		for _, u := range c.Usages() {
			apiSet[u.API] = true
			m.cells[u.API+"|"+c.app] = u.Mark()
		}
	}
	for api := range apiSet {
		m.APIs = append(m.APIs, api)
	}
	SortAPIs(m.APIs)
	return m
}

// Cell returns the mark for (api, app).
func (m *Matrix) Cell(api, app string) Mark { return m.cells[api+"|"+app] }

// Stats are the §VII-C aggregates. An invocation relation is one (app, API,
// component-kind) triple: a Both cell contributes two relations, an
// Activity-only or Fragment-only cell one. FragmentShare is the fraction of
// relations attributed to Fragments ("the API invocations associated with
// Fragments account for 49% of the total invocations"); FragmentOnlyShare is
// the fraction visible *only* from Fragments — the lower bound of what
// Activity-level tools miss ("at least 9.6%").
type Stats struct {
	DistinctAPIs      int
	TotalInvocations  int
	FragmentRelations int
	FragmentOnly      int
	FragmentShare     float64
	FragmentOnlyShare float64
}

// ComputeStats derives the aggregates of the matrix.
func (m *Matrix) ComputeStats() Stats {
	var s Stats
	s.DistinctAPIs = len(m.APIs)
	for _, api := range m.APIs {
		for _, app := range m.Apps {
			switch m.Cell(api, app) {
			case MarkActivity:
				s.TotalInvocations++
			case MarkFragment:
				s.TotalInvocations++
				s.FragmentRelations++
				s.FragmentOnly++
			case MarkBoth:
				s.TotalInvocations += 2
				s.FragmentRelations++
			}
		}
	}
	if s.TotalInvocations > 0 {
		s.FragmentShare = float64(s.FragmentRelations) / float64(s.TotalInvocations)
		s.FragmentOnlyShare = float64(s.FragmentOnly) / float64(s.TotalInvocations)
	}
	return s
}

// String summarizes the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d sensitive APIs, %d invocation relations, %.0f%% fragment-associated, %.1f%% fragment-only",
		s.DistinctAPIs, s.TotalInvocations, 100*s.FragmentShare, 100*s.FragmentOnlyShare)
}
