package experiments

// Experiment is one registered experiment: what cmd/experiments lists,
// runs by ID and sweeps, and what RunAll draws from.
type Experiment struct {
	// ID is the experiment identifier (E1..E21, A1, A2).
	ID string
	// Title summarizes the experiment.
	Title string
	// HostTimed marks an experiment whose report reads the host's clock,
	// so its text differs from run to run. RunAll, and with it the golden
	// file, omits it; cmd/experiments runs it. Only E18 is host-timed: it
	// times resolutions over a million-segment tree.
	HostTimed bool

	run func() Report
}

// Run executes the experiment and returns its report, carrying the
// registered ID and title.
func (e Experiment) Run() Report {
	rep := e.run()
	rep.ID, rep.Title = e.ID, e.Title
	return rep
}

// registry lists every experiment in presentation order.
var registry = []Experiment{
	{ID: "E1", Title: "gate entry points eliminated by the linker removal", run: E1GateCount},
	{ID: "E2", Title: "protected address-space-management code after the reference-name removal", run: E2AddressSpaceCode},
	{ID: "E3", Title: "user-available supervisor entries after linker+refname removals", run: E3SupervisorEntries},
	{ID: "E4", Title: "cross-ring vs intra-ring call cost, 645 vs 6180", run: E4CrossRingCall},
	{ID: "E5", Title: "page-fault path: sequential cascade vs dedicated kernel processes", run: E5PageFaultPath},
	{ID: "E6", Title: "network input buffering: circular reuse vs infinite VM-backed buffer", run: E6NetworkBuffer},
	{ID: "E7", Title: "fault injection: adversarial page-replacement policy in the policy ring", run: E7PolicyFaultInjection},
	{ID: "E8", Title: "interrupt handling: borrowed process vs dedicated handler processes", run: E8InterruptHandling},
	{ID: "E9", Title: "kernel inventory across the reduction programme", run: E9KernelInventory},
	{ID: "E10", Title: "penetration suite: supervisor compromises before and after the removals", run: E10Penetration},
	{ID: "E11", Title: "compartmentalization at the bottom layer; sharing common only within compartments", run: E11MLSPartitioning},
	{ID: "E12", Title: "boot-time privilege: bootstrap vs generated memory image", run: E12BootComplexity},
	{ID: "E13", Title: "network attachment under storm: borrowed processes vs dedicated front-end", run: E13NetAttach},
	{ID: "E14", Title: "hot-path performance: the associative memory", run: E14HotPathPerformance},
	{ID: "E15", Title: "fault storm: deterministic injection + self-healing recovery paths", run: E15FaultStorm},
	{ID: "E16", Title: "metrics plane: one registry, zero overhead, sampler-invariant export", run: E16MetricsPlane},
	{ID: "E17", Title: "fleet: consistent-hash sharding and live migration across kernels", run: E17FleetScaling},
	{ID: "E18", Title: "hierarchy at scale: revocation-safe resolution cache over a million segments", HostTimed: true, run: E18HierarchyScale},
	{ID: "E19", Title: "Checkpoint, torn-write crash, restore", run: E19CheckpointRestore},
	{ID: "E20", Title: "traced gate dispatch: zero allocations, zero added vcycles", run: E20TracedGateDispatch},
	{ID: "E21", Title: "Persona workloads and adversarial fuzzing", run: E21PersonaWorkloads},
	{ID: "A1", Title: "ablation: performance cost of the policy/mechanism ring split", run: A1SecurityCost},
	{ID: "A2", Title: "ablation: free-pool water marks of the parallel page control", run: A2WaterMarks},
}

// All returns every registered experiment in presentation order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// RunAll executes every experiment except the host-timed ones, in order.
func RunAll() []Report {
	var reps []Report
	for _, e := range registry {
		if !e.HostTimed {
			reps = append(reps, e.Run())
		}
	}
	return reps
}
