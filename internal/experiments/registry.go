package experiments

// Experiment is one registered experiment: what cmd/experiments lists,
// runs by ID and sweeps, and what RunAll draws from.
type Experiment struct {
	// ID is the experiment identifier (E1..E21, A1, A2).
	ID string
	// Title summarizes the experiment.
	Title string
	// InRunAll marks the experiments RunAll executes. E14 measures
	// wall-clock scaling, E18 builds a million-segment tree and E19
	// writes real journal bytes, so only cmd/experiments runs them.
	InRunAll bool
	// Ablation marks A1 and A2, which cmd/experiments sweeps only under
	// -ablations.
	Ablation bool

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
	{ID: "E1", Title: "gate entry points eliminated by the linker removal", InRunAll: true, run: E1GateCount},
	{ID: "E2", Title: "protected address-space-management code after the reference-name removal", InRunAll: true, run: E2AddressSpaceCode},
	{ID: "E3", Title: "user-available supervisor entries after linker+refname removals", InRunAll: true, run: E3SupervisorEntries},
	{ID: "E4", Title: "cross-ring vs intra-ring call cost, 645 vs 6180", InRunAll: true, run: E4CrossRingCall},
	{ID: "E5", Title: "page-fault path: sequential cascade vs dedicated kernel processes", InRunAll: true, run: E5PageFaultPath},
	{ID: "E6", Title: "network input buffering: circular reuse vs infinite VM-backed buffer", InRunAll: true, run: E6NetworkBuffer},
	{ID: "E7", Title: "fault injection: adversarial page-replacement policy in the policy ring", InRunAll: true, run: E7PolicyFaultInjection},
	{ID: "E8", Title: "interrupt handling: borrowed process vs dedicated handler processes", InRunAll: true, run: E8InterruptHandling},
	{ID: "E9", Title: "kernel inventory across the reduction programme", InRunAll: true, run: E9KernelInventory},
	{ID: "E10", Title: "penetration suite: supervisor compromises before and after the removals", InRunAll: true, run: E10Penetration},
	{ID: "E11", Title: "compartmentalization at the bottom layer; sharing common only within compartments", InRunAll: true, run: E11MLSPartitioning},
	{ID: "E12", Title: "boot-time privilege: bootstrap vs generated memory image", InRunAll: true, run: E12BootComplexity},
	{ID: "E13", Title: "network attachment under storm: borrowed processes vs dedicated front-end", InRunAll: true, run: E13NetAttach},
	{ID: "E14", Title: "hot-path performance: associative memory + concurrent memory core", run: E14HotPathPerformance},
	{ID: "E15", Title: "fault storm: deterministic injection + self-healing recovery paths", InRunAll: true, run: E15FaultStorm},
	{ID: "E16", Title: "metrics plane: one registry, zero overhead, sampler-invariant export", InRunAll: true, run: E16MetricsPlane},
	{ID: "E17", Title: "fleet: consistent-hash sharding and live migration across kernels", InRunAll: true, run: E17FleetScaling},
	{ID: "E18", Title: "hierarchy at scale: revocation-safe resolution caches over a million segments", run: E18HierarchyScale},
	{ID: "E19", Title: "Checkpoint, torn-write crash, restore", run: E19CheckpointRestore},
	{ID: "E20", Title: "traced gate dispatch: zero allocations, zero added vcycles", InRunAll: true, run: E20TracedGateDispatch},
	{ID: "E21", Title: "Persona workloads and adversarial fuzzing", InRunAll: true, run: E21PersonaWorkloads},
	{ID: "A1", Title: "ablation: performance cost of the policy/mechanism ring split", Ablation: true, run: A1SecurityCost},
	{ID: "A2", Title: "ablation: free-pool water marks of the parallel page control", Ablation: true, run: A2WaterMarks},
}

// All returns every registered experiment in presentation order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// RunAll executes the InRunAll experiments in order.
func RunAll() []Report {
	var reps []Report
	for _, e := range registry {
		if e.InRunAll {
			reps = append(reps, e.Run())
		}
	}
	return reps
}
