// Package fault defines µqSim's fault-injection and resilience model: a
// deterministic, seeded schedule of infrastructure faults (machine crashes,
// instance kills, frequency degradation, edge latency) plus per-RPC-edge
// resilience policies (timeouts, exponential-backoff retries, circuit
// breaking). The package is purely descriptive plus small deterministic
// state machines; the sim package interprets plans and enforces policies.
//
// The fault vocabulary mirrors what operators of interactive microservices
// actually rehearse: what happens when a machine dies mid-run, a dependency
// slows down, or a retry storm cascades through the fan-out graph. Related
// simulators (PerfSim's chain-level failures, CloudNativeSim's resilience
// scenarios) treat these as first-class inputs; µqSim does too.
package fault

import (
	"fmt"

	"uqsim/internal/des"
)

// Kind enumerates the injectable fault actions.
type Kind int

// Fault kinds.
const (
	// CrashMachine takes a whole machine down: every instance on it
	// (including its network-processing service) drops queued and
	// in-flight jobs, which propagate failure to upstream callers.
	CrashMachine Kind = iota
	// RecoverMachine restarts every instance on a crashed machine with
	// empty queues.
	RecoverMachine
	// KillInstance takes one instance of a service down.
	KillInstance
	// RestartInstance brings a killed instance back.
	RestartInstance
	// DegradeFreq clamps every allocation on a machine to the given
	// frequency (a thermal event, a noisy neighbour, a bad BIOS update).
	DegradeFreq
	// EdgeLatency adds fixed latency to every RPC delivered into a
	// service between At and Until (a slow dependency, a packet-loss
	// episode on one link).
	EdgeLatency
	// CrashDomain crashes every machine in a failure domain (a rack
	// losing its switch, a power feed tripping), staggered by Stagger
	// between machines in declaration order.
	CrashDomain
	// RecoverDomain restarts every machine in a failure domain with the
	// same stagger.
	RecoverDomain
	// PartitionStart severs network reachability between GroupA and
	// GroupB (both directions, or GroupA→GroupB only when OneWay) from At
	// until Until; Until 0 keeps the partition open for the rest of the
	// run.
	PartitionStart
	// SetLink installs a gray link on the directed Src→Dst machine pair
	// (or as the all-pairs default when both are empty): each message
	// crossing it is independently dropped with probability Drop and
	// duplicated with probability Dup. Until clears the link.
	SetLink
	// LoadStep multiplies the open-loop arrival rate by Factor between At
	// and Until (a flash crowd, a failed-over region's traffic landing
	// here, an upstream backing off). Until restores the nominal rate;
	// Until 0 keeps the step for the rest of the run.
	LoadStep
)

// String names the kind as it appears in faults.json.
func (k Kind) String() string {
	switch k {
	case CrashMachine:
		return "crash_machine"
	case RecoverMachine:
		return "recover_machine"
	case KillInstance:
		return "kill_instance"
	case RestartInstance:
		return "restart_instance"
	case DegradeFreq:
		return "degrade_freq"
	case EdgeLatency:
		return "edge_latency"
	case CrashDomain:
		return "crash_domain"
	case RecoverDomain:
		return "recover_domain"
	case PartitionStart:
		return "partition"
	case SetLink:
		return "set_link"
	case LoadStep:
		return "load_step"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault action.
type Event struct {
	// At is the virtual time the fault fires.
	At des.Time
	// Kind selects the action.
	Kind Kind
	// Machine names the target machine (CrashMachine, RecoverMachine,
	// DegradeFreq).
	Machine string
	// Service names the target service (KillInstance, RestartInstance,
	// EdgeLatency).
	Service string
	// Instance selects the instance index within the service's
	// deployment (KillInstance, RestartInstance); -1 targets all.
	Instance int
	// FreqMHz is the degraded frequency (DegradeFreq).
	FreqMHz float64
	// Extra is the added per-delivery latency (EdgeLatency).
	Extra des.Time
	// Until ends a windowed fault (EdgeLatency, PartitionStart, SetLink);
	// 0 means it lasts until the end of the run.
	Until des.Time
	// Domain names the target failure domain (CrashDomain, RecoverDomain).
	Domain string
	// Stagger spaces the per-machine actions of a domain event; 0 crashes
	// or recovers the whole domain at one instant.
	Stagger des.Time
	// GroupA and GroupB are the two sides of a partition (PartitionStart).
	GroupA []string
	GroupB []string
	// OneWay restricts a partition to the GroupA→GroupB direction —
	// an asymmetric cut (GroupB still hears GroupA's messages' targets).
	OneWay bool
	// Src and Dst name the directed machine pair of a gray link
	// (SetLink); both empty installs the all-pairs default.
	Src string
	Dst string
	// Drop and Dup are the gray link's per-message probabilities (SetLink).
	Drop float64
	Dup  float64
	// Factor scales the open-loop arrival rate (LoadStep); 2 doubles the
	// offered load, 0.5 halves it.
	Factor float64
}

// Validate checks an event's internal consistency.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fault: event %s at negative time %v", e.Kind, e.At)
	}
	switch e.Kind {
	case CrashMachine, RecoverMachine:
		if e.Machine == "" {
			return fmt.Errorf("fault: %s needs a machine", e.Kind)
		}
	case DegradeFreq:
		if e.Machine == "" {
			return fmt.Errorf("fault: %s needs a machine", e.Kind)
		}
		if e.FreqMHz <= 0 {
			return fmt.Errorf("fault: %s needs a positive freq_mhz", e.Kind)
		}
	case KillInstance, RestartInstance:
		if e.Service == "" {
			return fmt.Errorf("fault: %s needs a service", e.Kind)
		}
		if e.Instance < -1 {
			return fmt.Errorf("fault: %s instance %d out of range", e.Kind, e.Instance)
		}
	case EdgeLatency:
		if e.Service == "" {
			return fmt.Errorf("fault: %s needs a service", e.Kind)
		}
		if e.Extra <= 0 {
			return fmt.Errorf("fault: %s needs positive extra latency", e.Kind)
		}
		if e.Until != 0 && e.Until <= e.At {
			return fmt.Errorf("fault: %s until %v not after at %v", e.Kind, e.Until, e.At)
		}
	case CrashDomain, RecoverDomain:
		if e.Domain == "" {
			return fmt.Errorf("fault: %s needs a domain", e.Kind)
		}
		if e.Stagger < 0 {
			return fmt.Errorf("fault: %s stagger %v negative", e.Kind, e.Stagger)
		}
	case PartitionStart:
		if len(e.GroupA) == 0 || len(e.GroupB) == 0 {
			return fmt.Errorf("fault: %s needs machines on both sides", e.Kind)
		}
		if e.Until != 0 && e.Until <= e.At {
			return fmt.Errorf("fault: %s until %v not after at %v", e.Kind, e.Until, e.At)
		}
	case SetLink:
		if (e.Src == "") != (e.Dst == "") {
			return fmt.Errorf("fault: %s needs both src and dst (or neither, for the default link)", e.Kind)
		}
		if e.Src != "" && e.Src == e.Dst {
			return fmt.Errorf("fault: %s src and dst are both %q", e.Kind, e.Src)
		}
		if e.Drop < 0 || e.Drop > 1 {
			return fmt.Errorf("fault: %s drop %v outside [0,1]", e.Kind, e.Drop)
		}
		if e.Dup < 0 || e.Dup > 1 {
			return fmt.Errorf("fault: %s dup %v outside [0,1]", e.Kind, e.Dup)
		}
		if e.Drop == 0 && e.Dup == 0 {
			return fmt.Errorf("fault: %s with zero drop and dup does nothing", e.Kind)
		}
		if e.Until != 0 && e.Until <= e.At {
			return fmt.Errorf("fault: %s until %v not after at %v", e.Kind, e.Until, e.At)
		}
	case LoadStep:
		if e.Factor <= 0 {
			return fmt.Errorf("fault: %s needs a positive factor", e.Kind)
		}
		if e.Until != 0 && e.Until <= e.At {
			return fmt.Errorf("fault: %s until %v not after at %v", e.Kind, e.Until, e.At)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	return nil
}

// Plan is a deterministic schedule of fault events. The same plan under the
// same simulation seed always produces the same run.
type Plan struct {
	Events []Event
}

// Validate checks every event.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return nil
}
