// Package directive is a prosper-lint fixture for suppression
// semantics: end-of-line vs preceding-line placement, reach, and
// malformed directives. Expected findings live in analysis_test.go
// (directive-pass findings land on comment lines, which cannot carry a
// second annotation comment).
package directive

import "time"

// eol: the directive trails the offending code.
func eol() time.Time {
	return time.Now() //prosperlint:ignore wallclock fixture: approved host-side timestamp
}

// preceding: the directive sits directly above the offending line.
func preceding() time.Time {
	//prosperlint:ignore wallclock fixture: approved host-side timestamp
	return time.Now()
}

// gap: a blank line breaks the directive's reach.
func gap() time.Time {
	//prosperlint:ignore wallclock fixture: does not reach across the blank line

	return time.Now()
}

// unknownPass: a typo in the pass name suppresses nothing.
func unknownPass() time.Time {
	//prosperlint:ignore wallclocks fixture: typo in the pass name
	return time.Now()
}

// missingReason: a bare pass name is not a justification.
func missingReason() time.Time {
	return time.Now() //prosperlint:ignore wallclock
}

// badVerb: only "ignore" exists.
func badVerb() time.Time {
	return time.Now() //prosperlint:silence wallclock because reasons
}

// commaList: one directive covers a maprange and a wallclock finding
// on the same line.
func commaList() int64 {
	var total int64
	//prosperlint:ignore maprange,wallclock fixture: host timing in a map loop, order-independent by construction
	for k, v := range map[int64]int64{1: time.Now().UnixNano()} {
		total += k * v
	}
	return total
}
