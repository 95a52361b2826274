// MsgType switch-coverage fixtures for the msgexhaustive rule.
package proto

import "fix/internal/mapreduce/remote"

func missingArm(t remote.MsgType) int {
	switch t { // want `\[msgexhaustive\] switch over remote\.MsgType has no default and misses MsgResult`
	case remote.MsgHello:
		return 1
	case remote.MsgJob:
		return 2
	}
	return 0
}

func allArms(t remote.MsgType) int {
	switch t {
	case remote.MsgHello:
		return 1
	case remote.MsgJob:
		return 2
	case remote.MsgResult:
		return 3
	}
	return 0
}

func defaultDecides(t remote.MsgType) int {
	switch t {
	case remote.MsgHello:
		return 1
	default:
		return -1
	}
}

// notMsgType: switches over other types are none of this rule's
// business.
func notMsgType(b byte) int {
	switch b {
	case 1:
		return 1
	}
	return 0
}

// drainFrame is the switch of drainFatal in internal/mapreduce/dist.go,
// over a frame's type byte, without its default: the stub's MsgHello and
// MsgJob stand in for MsgPong and MsgError.
func drainFrame(b byte) string {
	switch remote.MsgType(b) { // want `\[msgexhaustive\] switch over remote\.MsgType has no default and misses MsgResult`
	case remote.MsgHello:
		return ""
	case remote.MsgJob:
		return "error"
	}
	return ""
}
