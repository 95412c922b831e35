package platoon_test

import (
	"fmt"
	"sort"

	"ahs/internal/platoon"
)

// ExampleParticipants reproduces the paper's §2.2.1 example: the escorted
// exit (TIE-E) of a faulty vehicle involves far fewer vehicles under
// decentralized inter-platoon coordination than under centralized.
func ExampleParticipants() {
	view := platoon.View{
		Platoons: [][]int{
			{1, 2, 3, 4, 5}, // platoon 1, vehicle 4 will be the faulty one
			{6, 7},          // neighbouring platoon
		},
	}
	for _, strategy := range []platoon.Strategy{platoon.DD, platoon.CD} {
		parts, err := platoon.Participants(nil, view, 4, platoon.TIEE, strategy)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		sort.Ints(parts)
		fmt.Printf("%s inter-platoon: %v\n", strategy.Inter, parts)
	}
	// Output:
	// decentralized inter-platoon: [1 3 5 6]
	// centralized inter-platoon: [1 2 3 5 6]
}

// ExampleClassifySituation evaluates the catastrophic situations of
// Table 2.
func ExampleClassifySituation() {
	fmt.Println(platoon.ClassifySituation(2, 0, 0)) // two class A failures
	fmt.Println(platoon.ClassifySituation(1, 1, 1)) // A + B + C
	fmt.Println(platoon.ClassifySituation(0, 2, 2)) // four class B/C
	fmt.Println(platoon.ClassifySituation(1, 1, 0)) // survivable
	// Output:
	// ST1
	// ST2
	// ST3
	// none
}

// ExampleFailureMode_Escalate walks the degradation chain of Figure 2.
func ExampleFailureMode_Escalate() {
	f := platoon.FM6
	fmt.Printf("%v -> %v", f, f.Maneuver())
	for {
		next, ok := f.Escalate()
		if !ok {
			fmt.Println(" -> v_KO")
			return
		}
		f = next
		fmt.Printf(" | %v -> %v", f, f.Maneuver())
	}
	// Output:
	// FM6 -> TIE-N | FM5 -> TIE | FM4 -> TIE-E | FM3 -> GS | FM2 -> CS | FM1 -> AS -> v_KO
}
