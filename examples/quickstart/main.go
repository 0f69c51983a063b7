// Command quickstart is the minimal Camus walkthrough: define a message
// format, subscribe with filters, compile to pipeline tables, and push
// packets through a software switch.
package main

import (
	"fmt"
	"log"

	"camus/camus"
	"camus/internal/analysis/fitcheck"
)

const specSrc = `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`

func main() {
	// 1. The application describes its packet format (paper Fig. 4).
	app, err := camus.NewApp("itch", specSrc)
	if err != nil {
		log.Fatalf("spec: %v", err)
	}

	// 2. End points submit packet subscriptions: "send me the packets
	// that match this filter".
	rules, err := app.ParseRules(`
stock == GOOGL and price > 50: fwd(1)
stock == GOOGL: fwd(2)
price < 10: fwd(3)
`)
	if err != nil {
		log.Fatalf("rules: %v", err)
	}

	// 3. The compiler turns the rules into a BDD and then into
	// match-action tables (Fig. 5 → Fig. 6).
	prog, err := app.Compile(rules)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Println(camus.Describe(prog))
	fmt.Printf("resources: %s\n\n", fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true}))

	// 4. A software switch executes the compiled tables.
	sw, err := app.NewSwitch("demo", prog)
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	send := func(stock string, price int64) {
		m := app.NewMessage()
		m.MustSet("stock", camus.StrVal(stock))
		m.MustSet("price", camus.IntVal(price))
		m.MustSet("shares", camus.IntVal(100))
		out := sw.Process(&camus.Packet{In: 0, Msgs: []*camus.Message{m}}, 0)
		fmt.Printf("publish stock=%-6s price=%4d → ", stock, price)
		if len(out) == 0 {
			fmt.Println("dropped")
			return
		}
		for _, d := range out {
			fmt.Printf("port %d ", d.Port)
		}
		fmt.Println()
	}
	send("GOOGL", 60) // overlapping rules → multicast to ports 1 and 2
	send("GOOGL", 20) // only the unconditional GOOGL subscription
	send("MSFT", 5)   // cheap → port 3
	send("MSFT", 500) // nobody cares → dropped
}
