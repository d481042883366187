package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cubecluster"
	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/obs"
)

// The cubeservice workload: procs clients, each holding one v2 client
// to a coordinator that serves a cubecluster whose shards are TCP cube
// servers behind connection pools, send a seeded request mix in a
// closed loop. README.md gives the basis of every size and weight here.
const (
	csDays       = 32 // days of model output per resident cube
	csImportDays = 2  // day files per import: the fewest that take the multi-file path
)

// csClasses are the request classes and their share of the requests.
// The weights are inversely proportional to each class's mean latency
// as measured on this mix (README.md), so each class holds about a
// quarter of the clients' busy time and a slowdown confined to one
// class moves the aggregate figures by about a quarter of its size.
var csClasses = []struct {
	name   string
	weight float64
}{
	{"pipe", 0.18},
	{"op", 0.27},
	{"gather", 0.18},
	{"import", 0.37},
}

// csReply is the comparable part of one request's replies.
type csReply struct {
	Rows, ImplicitLen int
	Measure           string
	Values            [][]float32
}

// equal reports whether two replies match value for value; it is
// reflect.DeepEqual without reflection, fast enough for bulk replies.
func (r csReply) equal(o csReply) bool {
	if r.Rows != o.Rows || r.ImplicitLen != o.ImplicitLen || r.Measure != o.Measure || len(r.Values) != len(o.Values) {
		return false
	}
	for i, row := range r.Values {
		if len(row) != len(o.Values[i]) {
			return false
		}
		for j, x := range row {
			if x != o.Values[i][j] {
				return false
			}
		}
	}
	return true
}

func cubeReply(c *datacube.Cube, vals [][]float32) csReply {
	return csReply{Rows: c.Rows(), ImplicitLen: c.ImplicitLen(), Measure: c.Measure(), Values: vals}
}

func remoteReply(sh cubeserver.Shape, vals [][]float32) csReply {
	return csReply{Rows: sh.Rows, ImplicitLen: sh.ImplicitLen, Measure: sh.Measure, Values: vals}
}

// csVariant is one concrete request of a class. do runs it through a
// client, resident mapping resident-cube names to the cluster's cube
// IDs; ref runs the same request by direct calls on one local engine,
// so the expected reply crosses no wire codec.
type csVariant struct {
	class string
	desc  string
	do    func(c *cubeserver.Client, resident map[string]string) (csReply, error)
	ref   func(e *datacube.Engine, resident map[string]*datacube.Cube) (csReply, error)
}

type csInstance struct {
	e        *env
	regCoord *obs.Registry // coordinator server: what clients see on the wire
	regShard *obs.Registry // shard servers
	regClust *obs.Registry // coordinator's cluster instruments
	cluster  *cubecluster.Cluster
	coord    *cubeserver.Server
	engines  []*datacube.Engine
	servers  []*cubeserver.Server // shard servers
	clients  []*cubeserver.Client
	resident map[string]string
	byClass  map[string][]csVariant
	want     map[string]csReply // by variant desc
}

func setupCubeService(e *env) (instance, error) {
	modelDir := filepath.Join(e.dir, "model")
	if err := mkdir(modelDir); err != nil {
		return nil, err
	}
	files, err := esm.NewModel(esm.Config{Grid: grid.Reduced, StartYear: 2040, Years: 1, DaysPerYear: csDays, Seed: e.seed}).
		Run(esm.RunOptions{Dir: modelDir})
	if err != nil {
		return nil, err
	}
	s := &csInstance{e: e, regCoord: obs.NewRegistry(), regShard: obs.NewRegistry(), regClust: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	// The expected reply of every variant comes from the same request
	// run by direct calls on one local engine.
	refEngine := datacube.NewEngine(datacube.Config{Servers: e.procs})
	defer refEngine.Close()

	// Shards: one TCP cube server per core, each behind a pool.
	transports := make([][]cubecluster.Transport, e.procs)
	for i := range transports {
		eng := datacube.NewEngine(datacube.Config{Servers: 1})
		s.engines = append(s.engines, eng)
		srv, err := cubeserver.ServeDispatcher("127.0.0.1:0", cubeserver.EngineDispatcher(eng), s.regShard)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		pool, err := cubecluster.DialPoolTransport(srv.Addr(), cubecluster.DefaultPoolSize)
		if err != nil {
			return nil, err
		}
		transports[i] = []cubecluster.Transport{pool}
	}
	if s.cluster, err = cubecluster.New(cubecluster.Config{Metrics: s.regClust, SpoolDir: e.dir}, transports); err != nil {
		return nil, err
	}
	if s.coord, err = cubeserver.ServeDispatcher("127.0.0.1:0", s.cluster, s.regCoord); err != nil {
		return nil, err
	}
	for i := 0; i < e.procs; i++ {
		c, err := cubeserver.Dial(s.coord.Addr())
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}

	// Resident cubes, on the cluster and on the reference.
	s.resident = map[string]string{}
	refResident := map[string]*datacube.Cube{}
	for _, v := range []string{"TREFHT", "PRECT"} {
		rc, err := s.clients[0].ImportFiles(files, v, "time")
		if err != nil {
			return nil, err
		}
		s.resident[v] = rc.ID()
		if refResident[v], err = refEngine.ImportFiles(files, v, "time"); err != nil {
			return nil, err
		}
	}

	s.byClass = csVariants(files, grid.Reduced.Size())
	s.want = map[string]csReply{}
	for _, vs := range s.byClass {
		for _, v := range vs {
			r, err := v.ref(refEngine, refResident)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", v.desc, err)
			}
			s.want[v.desc] = r
		}
	}
	// Warm-up: every client runs every variant once, which dials every
	// pooled shard connection and fills the engines' scratch pools.
	for _, c := range s.clients {
		for _, vs := range s.byClass {
			for _, v := range vs {
				if err := s.run(c, v); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	ok = true
	return s, nil
}

// csVariants builds the request variants of every class.
func csVariants(files []string, rows int) map[string][]csVariant {
	out := map[string][]csVariant{}
	add := func(v csVariant) { out[v.class] = append(out[v.class], v) }

	pipe := func(cube string, steps ...cubeserver.PipelineStep) {
		add(csVariant{"pipe", fmt.Sprintf("pipe %s %v", cube, steps),
			func(c *cubeserver.Client, res map[string]string) (csReply, error) {
				rc, err := cubeserver.NewRemoteCube(c, res[cube]).Pipeline(steps...)
				if err != nil {
					return csReply{}, err
				}
				vals, err := rc.Values()
				if derr := rc.Delete(); err == nil {
					err = derr
				}
				return remoteReply(rc.Shape, vals), err
			},
			func(e *datacube.Engine, res map[string]*datacube.Cube) (csReply, error) {
				plan := res[cube].Lazy()
				for _, st := range steps {
					switch st.Op {
					case "apply":
						plan.Apply(st.Expr)
					case "reduce":
						plan.Reduce(st.RowOp, st.Params...)
					case "reducegroup":
						plan.ReduceGroup(st.RowOp, st.Group, st.Params...)
					case "aggrows":
						plan.AggregateRows(st.RowOp, st.Params...)
					default:
						return csReply{}, fmt.Errorf("no reference for pipeline op %q", st.Op)
					}
				}
				c, err := plan.Execute()
				if err != nil {
					return csReply{}, err
				}
				r := cubeReply(c, c.Values())
				return r, c.Delete()
			}})
	}
	// The first has the shape of the pipeline wfbench -exp c3 times
	// (threshold-select, sum over time, mean over cells); the others
	// are threshold-count, daily-extremum and precipitation reductions
	// of the kind the index kernels run.
	pipe("TREFHT", cubeserver.PipelineStep{Op: "apply", Expr: "x>290 ? x : 0"},
		cubeserver.PipelineStep{Op: "reduce", RowOp: "sum"},
		cubeserver.PipelineStep{Op: "aggrows", RowOp: "avg"})
	pipe("TREFHT", cubeserver.PipelineStep{Op: "apply", Expr: "x>290 ? 1 : 0"},
		cubeserver.PipelineStep{Op: "reduce", RowOp: "sum"},
		cubeserver.PipelineStep{Op: "aggrows", RowOp: "sum"})
	pipe("TREFHT", cubeserver.PipelineStep{Op: "reducegroup", RowOp: "max", Group: esm.StepsPerDay},
		cubeserver.PipelineStep{Op: "reduce", RowOp: "avg"},
		cubeserver.PipelineStep{Op: "aggrows", RowOp: "avg"})
	pipe("PRECT", cubeserver.PipelineStep{Op: "reduce", RowOp: "max"},
		cubeserver.PipelineStep{Op: "aggrows", RowOp: "max"})

	op := func(cube, desc string, row int, remote func(*cubeserver.RemoteCube) (*cubeserver.RemoteCube, error),
		local func(*datacube.Cube) (*datacube.Cube, error)) {
		add(csVariant{"op", fmt.Sprintf("op %s %s row %d", cube, desc, row),
			func(c *cubeserver.Client, res map[string]string) (csReply, error) {
				rc, err := remote(cubeserver.NewRemoteCube(c, res[cube]))
				if err != nil {
					return csReply{}, err
				}
				v, err := rc.Row(row)
				if derr := rc.Delete(); err == nil {
					err = derr
				}
				return remoteReply(rc.Shape, [][]float32{v}), err
			},
			func(e *datacube.Engine, res map[string]*datacube.Cube) (csReply, error) {
				c, err := local(res[cube])
				if err != nil {
					return csReply{}, err
				}
				v, err := c.Row(row)
				if derr := c.Delete(); err == nil {
					err = derr
				}
				return cubeReply(c, [][]float32{v}), err
			}})
	}
	op("TREFHT", "apply x*0.5", 7,
		func(r *cubeserver.RemoteCube) (*cubeserver.RemoteCube, error) { return r.Apply("x*0.5") },
		func(c *datacube.Cube) (*datacube.Cube, error) { return c.Apply("x*0.5") })
	op("TREFHT", "reducegroup max", rows/2+11,
		func(r *cubeserver.RemoteCube) (*cubeserver.RemoteCube, error) {
			return r.ReduceGroup("max", esm.StepsPerDay)
		},
		func(c *datacube.Cube) (*datacube.Cube, error) { return c.ReduceGroup("max", esm.StepsPerDay) })
	op("PRECT", "reduce avg", rows-5,
		func(r *cubeserver.RemoteCube) (*cubeserver.RemoteCube, error) { return r.Reduce("avg") },
		func(c *datacube.Cube) (*datacube.Cube, error) { return c.Reduce("avg") })

	// A gather pulls a whole resident cube, as the bulk gather of
	// wfbench -exp c3 does.
	for _, cube := range []string{"TREFHT", "PRECT"} {
		add(csVariant{"gather", "gather " + cube,
			func(c *cubeserver.Client, res map[string]string) (csReply, error) {
				vals, err := cubeserver.NewRemoteCube(c, res[cube]).Values()
				return csReply{Values: vals}, err
			},
			func(e *datacube.Engine, res map[string]*datacube.Cube) (csReply, error) {
				return csReply{Values: res[cube].Values()}, nil
			}})
	}

	for k := 0; k+csImportDays <= len(files); k += 4 {
		days := files[k : k+csImportDays]
		row := (k * 397) % rows
		add(csVariant{"import", fmt.Sprintf("import PSL days %d-%d row %d", k, k+csImportDays-1, row),
			func(c *cubeserver.Client, _ map[string]string) (csReply, error) {
				rc, err := c.ImportFiles(days, "PSL", "time")
				if err != nil {
					return csReply{}, err
				}
				v, err := rc.Row(row)
				if derr := rc.Delete(); err == nil {
					err = derr
				}
				return remoteReply(rc.Shape, [][]float32{v}), err
			},
			func(e *datacube.Engine, _ map[string]*datacube.Cube) (csReply, error) {
				c, err := e.ImportFiles(days, "PSL", "time")
				if err != nil {
					return csReply{}, err
				}
				v, err := c.Row(row)
				if derr := c.Delete(); err == nil {
					err = derr
				}
				return cubeReply(c, [][]float32{v}), err
			}})
	}
	return out
}

// run sends one variant and checks its reply.
func (s *csInstance) run(c *cubeserver.Client, v csVariant) error {
	got, err := v.do(c, s.resident)
	if err != nil {
		return fmt.Errorf("%s: %w", v.desc, err)
	}
	if !got.equal(s.want[v.desc]) {
		return fmt.Errorf("%s: reply differs from a single local engine", v.desc)
	}
	return nil
}

// pick draws a class by the mix weights, then a variant of it.
func (s *csInstance) pick(rng *rand.Rand) csVariant {
	x := rng.Float64()
	cls := csClasses[len(csClasses)-1].name
	for _, c := range csClasses {
		if x < c.weight {
			cls = c.name
			break
		}
		x -= c.weight
	}
	vs := s.byClass[cls]
	return vs[rng.Intn(len(vs))]
}

type csSample struct {
	class string
	ms    float64
	err   error
	bytes int
}

func (s *csInstance) measure(d time.Duration, tr *obs.Tracer) (*phase, error) {
	wireOut := func() float64 {
		return s.regCoord.CounterVec("cubeserver_wire_bytes_out_total", "", "codec").With("v2").Value()
	}
	wireIn := func() float64 {
		return s.regCoord.CounterVec("cubeserver_wire_bytes_in_total", "", "codec").With("v2").Value()
	}
	cells := func() (n int64) {
		for _, e := range s.engines {
			n += e.Stats().CellsProcessed
		}
		return n
	}
	out0, in0, cells0 := wireOut(), wireIn(), cells()
	scat0, gath0 := s.cluster.BytesStats()
	shard0 := s.cluster.ShardOpSnapshot()

	samples := make([][]csSample, len(s.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *cubeserver.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.e.seed*1000 + int64(i)))
			for time.Now().Before(deadline) {
				v := s.pick(rng)
				sp := tr.Start("cubeservice." + v.class)
				ts := time.Now()
				got, err := v.do(c, s.resident)
				dt := time.Since(ts)
				sp.EndErr(err)
				smp := csSample{class: v.class, ms: ms(dt), err: err}
				if err == nil {
					for _, row := range got.Values {
						smp.bytes += 4 * len(row)
					}
					if !got.equal(s.want[v.desc]) {
						smp.err = fmt.Errorf("%s: reply differs from a single local engine", v.desc)
					}
				}
				samples[i] = append(samples[i], smp)
			}
		}(i, c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(t0)}
	byClass := map[string][]float64{}
	payload := 0
	for _, ss := range samples {
		for _, smp := range ss {
			p.attempted++
			p.latency = append(p.latency, smp.ms)
			byClass[smp.class] = append(byClass[smp.class], smp.ms)
			payload += smp.bytes
			if smp.err != nil {
				p.fail("%s: %v", smp.class, smp.err)
				continue
			}
			p.work++
		}
	}
	// latency_p50_ms is the mix-weighted mean of the class medians: it
	// moves smoothly with every class's median, where the median of all
	// requests would jump between class modes.
	var busy float64
	for _, xs := range byClass {
		for _, x := range xs {
			busy += x
		}
	}
	for _, c := range csClasses {
		sm := summarize(byClass[c.name])
		p.p50 += c.weight * sm.p50
		var t float64
		for _, x := range byClass[c.name] {
			t += x
		}
		fmt.Printf("  %-7s %s, %.0f%% of busy time\n", c.name, sm, 100*div(t, busy))
	}
	if tr == nil {
		return p, nil
	}

	b := layerBreakdown(tr.Spans(), func(name string) string { return name })
	p.covered, p.table = b.covered, tableOf(b)
	n := float64(p.attempted)
	scat1, gath1 := s.cluster.BytesStats()
	shardP50, shardTail := histTail(shard0, s.cluster.ShardOpSnapshot())
	count := func(r *obs.Registry, name string) float64 { return r.Counter(name, "").Value() }
	conns := s.regCoord.CounterVec("cubeserver_conns_total", "", "codec").With("v2").Value() +
		s.regShard.CounterVec("cubeserver_conns_total", "", "codec").With("v2").Value()
	p.layers = map[string]float64{
		"cubeserver.wire_out_mb_per_s":     (wireOut() - out0) / 1e6 / p.wall.Seconds(),
		"cubeserver.wire_in_mb_per_s":      (wireIn() - in0) / 1e6 / p.wall.Seconds(),
		"cubeserver.conns":                 conns,
		"cubeserver.proto_errors":          count(s.regCoord, "cubeserver_proto_errors_total") + count(s.regShard, "cubeserver_proto_errors_total"),
		"cubeserver.payload_ratio":         div(float64(payload), wireOut()-out0),
		"cubecluster.scatter_bytes_per_op": div(scat1-scat0, n),
		"cubecluster.gather_bytes_per_op":  div(gath1-gath0, n),
		"cubecluster.shard_op_p50_ms":      1000 * shardP50,
		"cubecluster.shard_op_tail_ms":     1000 * shardTail,
		"cubecluster.failovers":            count(s.regClust, "cubecluster_failovers_total"),
		"cubecluster.merge_fallbacks":      count(s.regClust, "cubecluster_merge_fallbacks_total"),
		"datacube.cells_per_op":            div(float64(cells()-cells0), n),
	}
	for _, c := range []string{"pipe", "op", "gather", "import"} {
		sm := summarize(byClass[c])
		p.layers["cubeservice."+c+"_p50_ms"] = sm.p50
		if c != "import" {
			p.layers["cubeservice."+c+"_tail_ms"] = sm.tail
		}
	}
	return p, nil
}

func (s *csInstance) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, e := range s.engines {
		e.Close()
	}
}
