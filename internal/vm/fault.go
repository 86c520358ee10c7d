package vm

import "fmt"

// FaultKind classifies run-time faults.
type FaultKind int

// Fault kinds.
const (
	// FaultSegmentation is a #GP/#NP from the segmentation hardware —
	// under Cash this is how an array bound violation manifests.
	FaultSegmentation FaultKind = iota + 1
	// FaultPage is a page fault from the paging unit.
	FaultPage
	// FaultSoftwareCheck is a software bound-check failure (BCC's check
	// sequence, Cash's spill fall-back, or the bound instruction).
	FaultSoftwareCheck
	// FaultDivide is a divide-by-zero.
	FaultDivide
	// FaultInvalid is an ill-formed instruction or machine state.
	FaultInvalid
	// FaultStepLimit means the step budget was exhausted.
	FaultStepLimit
	// FaultTransient is a transient kernel failure (an injected
	// EAGAIN-style modify_ldt error); the operation is retryable on a
	// fresh machine.
	FaultTransient
	// FaultCanceled means the run's context (WithCancel) was canceled;
	// the serving layer maps it back to the context's error.
	FaultCanceled
	// FaultUncaughtOverflow is the overflow oracle's verdict (see
	// oracle.go): an array reference left its object and the checking
	// strategy let it through. IP names the reference.
	FaultUncaughtOverflow
)

func (k FaultKind) String() string {
	switch k {
	case FaultSegmentation:
		return "segmentation fault"
	case FaultPage:
		return "page fault"
	case FaultSoftwareCheck:
		return "software bound violation"
	case FaultDivide:
		return "divide error"
	case FaultInvalid:
		return "invalid operation"
	case FaultStepLimit:
		return "step limit exceeded"
	case FaultTransient:
		return "transient kernel failure"
	case FaultCanceled:
		return "run canceled"
	case FaultUncaughtOverflow:
		return "uncaught overflow"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is the error returned when program execution stops abnormally.
// IsBoundViolation reports whether the fault represents a detected array
// bound violation (the event Cash exists to catch).
type Fault struct {
	Kind  FaultKind
	IP    int    // instruction index
	Instr string // disassembly of the faulting instruction
	Cause error  // underlying x86seg or paging fault, if any
}

func (f *Fault) Error() string {
	msg := fmt.Sprintf("%s at ip=%d (%s)", f.Kind, f.IP, f.Instr)
	if f.Cause != nil {
		msg += ": " + f.Cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying hardware fault for errors.As.
func (f *Fault) Unwrap() error { return f.Cause }

// IsBoundViolation reports whether the fault is a detected bound
// violation, by hardware (segment limit) or software check.
func (f *Fault) IsBoundViolation() bool {
	return f.Kind == FaultSegmentation || f.Kind == FaultSoftwareCheck
}
