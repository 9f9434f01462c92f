package experiment

// A standalone §V-A2 request/response client driving transport endpoints
// directly, with its own flow ids, rng and connection pool: the reference
// that TestRequestResponseMatchesReference compares RunDynamic's
// RequestResponse mode against. It is kept verbatim bar the ref prefix on
// its identifiers; the pool changes no simulated byte, because each response
// is a fresh transport flow.

import (
	"fmt"
	"math/rand"

	"dynaq/internal/metrics"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/transport"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// refRequestSize is the wire payload of a request (a small RPC header).
const refRequestSize = 100 * units.Byte

// refConnsPerServer is the initial persistent-connection pool (§V-A2: "the
// client initially opens 5 persistent TCP connections to each server").
const refConnsPerServer = 5

// refConfig assembles a client/server benchmark.
type refConfig struct {
	// Client is the endpoint issuing requests.
	Client *transport.Endpoint
	// Servers are the endpoints answering them.
	Servers []*transport.Endpoint
	// CDF draws response sizes.
	CDF *workload.CDF
	// Load is the target utilization of the client's downlink Capacity.
	Load float64
	// Capacity is the client downlink rate.
	Capacity units.Rate
	// Requests is the number of requests to issue.
	Requests int
	// ServiceQueues is the number of DRR service queues; responses map to
	// classes [1, ServiceQueues] at random, requests ride class 0 (the
	// high-priority queue). ClassOf, when non-nil, overrides the response
	// class per byte offset (PIAS).
	ServiceQueues int
	ClassOf       func(serviceClass int) func(seq int64) int
	// Ctrl builds the congestion controller per response flow.
	Ctrl func() transport.Controller
	// ECN marks flows ECT.
	ECN    bool
	MSS    units.ByteSize
	MinRTO units.Duration
	Seed   int64
}

// refClient drives the benchmark.
type refClient struct {
	sim *sim.Simulator
	cfg refConfig
	rng *rand.Rand
	gen *workload.FlowGen

	nextFlow packet.FlowID
	pools    [][]bool // per server: busy flag per connection
	issued   int
	done     int

	// FCT records response flows (size = response bytes, time = request
	// issue to response completion — the user-perceived latency).
	FCT *metrics.FCTCollector
	// NewConnections counts pool growth beyond the initial 5 per server.
	NewConnections int
}

// newRefClient validates the configuration and prepares the pools.
func newRefClient(s *sim.Simulator, cfg refConfig) (*refClient, error) {
	if cfg.Client == nil || len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("app: client and at least one server required")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("app: requests must be positive")
	}
	if cfg.ServiceQueues <= 0 {
		return nil, fmt.Errorf("app: need at least one service queue")
	}
	gen, err := workload.NewFlowGen(cfg.Seed, cfg.CDF, cfg.Capacity, cfg.Load)
	if err != nil {
		return nil, err
	}
	c := &refClient{
		sim:   s,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0xc11e17)),
		gen:   gen,
		pools: make([][]bool, len(cfg.Servers)),
		FCT:   metrics.NewFCTCollector(),
	}
	for i := range c.pools {
		c.pools[i] = make([]bool, refConnsPerServer)
	}
	return c, nil
}

// Start schedules the request process. Completion is observable via Done.
func (c *refClient) Start() {
	c.scheduleNext(c.sim.Now().Add(c.gen.NextInterarrival()))
}

// Done reports how many responses have completed.
func (c *refClient) Done() int { return c.done }

// Issued reports how many requests have been sent.
func (c *refClient) Issued() int { return c.issued }

func (c *refClient) scheduleNext(at units.Time) {
	if c.issued >= c.cfg.Requests {
		return
	}
	c.sim.At(at, func() {
		c.issueRequest()
		c.scheduleNext(c.sim.Now().Add(c.gen.NextInterarrival()))
	})
}

// issueRequest picks a server and a free connection, sends the request
// flow, and arranges the response.
func (c *refClient) issueRequest() {
	c.issued++
	server := c.rng.Intn(len(c.cfg.Servers))
	conn := c.acquire(server)
	respSize := c.gen.NextSize()
	svcClass := 1 + c.rng.Intn(c.cfg.ServiceQueues)
	issuedAt := c.sim.Now()

	// The request itself: a small client→server flow on the
	// high-priority class (it is tiny, PIAS keeps it there anyway).
	c.nextFlow++
	reqID := c.nextFlow
	c.nextFlow++
	respID := c.nextFlow
	_, err := c.cfg.Client.StartFlow(transport.FlowConfig{
		Flow:   reqID,
		Dst:    c.cfg.Servers[server].Host().ID(),
		Class:  0,
		Size:   refRequestSize,
		MSS:    c.cfg.MSS,
		ECN:    c.cfg.ECN,
		MinRTO: c.cfg.MinRTO,
		OnComplete: func(units.Duration) {
			// Request delivered: the server answers on the same
			// connection.
			c.respond(server, conn, respID, respSize, svcClass, issuedAt)
		},
	})
	if err != nil {
		panic(err)
	}
}

func (c *refClient) respond(server, conn int, id packet.FlowID, size units.ByteSize,
	svcClass int, issuedAt units.Time) {
	var classOf func(seq int64) int
	if c.cfg.ClassOf != nil {
		classOf = c.cfg.ClassOf(svcClass)
	}
	var ctrl transport.Controller
	if c.cfg.Ctrl != nil {
		ctrl = c.cfg.Ctrl()
	}
	_, err := c.cfg.Servers[server].StartFlow(transport.FlowConfig{
		Flow:    id,
		Dst:     c.cfg.Client.Host().ID(),
		Class:   svcClass,
		ClassOf: classOf,
		Size:    size,
		MSS:     c.cfg.MSS,
		Ctrl:    ctrl,
		ECN:     c.cfg.ECN,
		MinRTO:  c.cfg.MinRTO,
		OnComplete: func(units.Duration) {
			c.done++
			c.release(server, conn)
			c.FCT.Add(size, c.sim.Now().Sub(issuedAt))
		},
	})
	if err != nil {
		panic(err)
	}
}

// acquire finds a free connection to the server, growing the pool when all
// are busy.
func (c *refClient) acquire(server int) int {
	for i, busy := range c.pools[server] {
		if !busy {
			c.pools[server][i] = true
			return i
		}
	}
	c.pools[server] = append(c.pools[server], true)
	c.NewConnections++
	return len(c.pools[server]) - 1
}

func (c *refClient) release(server, conn int) {
	c.pools[server][conn] = false
}
