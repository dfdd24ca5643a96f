package power_test

import (
	"fmt"
	"log"

	"netpowerprop/internal/power"
	"netpowerprop/internal/units"
)

// Eq. 1 on the paper's numbers: a 500 W GPU unit that is 85% power
// proportional idles at 75 W; a 750 W switch at 10% idles at 675 W.
func ExampleModel_Idle() {
	gpu, err := power.NewModel(500*units.Watt, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	sw, err := power.NewModel(750*units.Watt, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPU unit: %v\n", gpu.Idle())
	fmt.Printf("switch:   %v\n", sw.Idle())
	// Output:
	// GPU unit: 75 W
	// switch:   675 W
}
