// Package tpcd generates the deterministic TPC-D-style database used by
// the paper's performance study (§5.2, Table 1), plus the EMP/DEPT example
// data of §2. At scale factor 1.0 the table cardinalities match Table 1 of
// the paper exactly (customers 15,000; parts 20,000; suppliers 1,000;
// partsupp 80,000; lineitem 600,000); benchmarks typically run at a
// fraction of that. Generation is seeded and fully reproducible.
package tpcd

import (
	"fmt"
	"math/rand"

	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// Table 1 cardinalities at scale factor 1.0.
const (
	BaseCustomers = 15000
	BaseParts     = 20000
	BaseSuppliers = 1000
	BasePartSupp  = 80000
	BaseLineItem  = 600000
)

// Regions and nations follow the TPC layout: five regions of five nations.
var (
	Regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	Nations = [][]string{
		{"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
		{"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
		{"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
		{"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
		{"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
	}
	Segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	Metals     = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	Containers = []string{"SM CASE", "MED BOX", "6 PACK", "LG DRUM"}
)

// nationOf returns (nation, region) for a flat nation index 0..24.
func nationOf(i int) (string, string) {
	r := i % len(Regions)
	n := (i / len(Regions)) % len(Nations[r])
	return Nations[r][n], Regions[r]
}

// Config controls generation.
type Config struct {
	// SF is the scale factor relative to the paper's 120 MB database.
	SF float64
	// Seed drives the deterministic pseudo-random generator.
	Seed int64
	// SkipIndexes leaves the database unindexed; CreateAllIndexes can be
	// called later (the Figure 7 experiment drops one index instead).
	SkipIndexes bool
}

// scale returns max(1, round(sf*base)).
func scale(sf float64, base int) int {
	n := int(sf*float64(base) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the five-table database at the given scale factor.
func Generate(cfg Config) *storage.DB {
	if cfg.SF <= 0 {
		cfg.SF = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := storage.NewDB()

	nParts := scale(cfg.SF, BaseParts)
	nSupp := scale(cfg.SF, BaseSuppliers)
	nCust := scale(cfg.SF, BaseCustomers)
	nPS := scale(cfg.SF, BasePartSupp)
	nLI := scale(cfg.SF, BaseLineItem)

	parts := db.Create(schema.NewTable("parts",
		schema.Column{Name: "p_partkey", Type: schema.TInt},
		schema.Column{Name: "p_name", Type: schema.TString},
		schema.Column{Name: "p_brand", Type: schema.TString},
		schema.Column{Name: "p_type", Type: schema.TString},
		schema.Column{Name: "p_size", Type: schema.TInt},
		schema.Column{Name: "p_container", Type: schema.TString},
		schema.Column{Name: "p_retailprice", Type: schema.TFloat},
	))
	parts.Def.AddKey("p_partkey")
	for i := 0; i < nParts; i++ {
		brand := fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))
		must(parts.Insert(storage.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("part-%d", i+1)),
			sqltypes.NewString(brand),
			sqltypes.NewString(Metals[rng.Intn(len(Metals))]),
			sqltypes.NewInt(int64(1 + rng.Intn(50))),
			sqltypes.NewString(Containers[rng.Intn(len(Containers))]),
			sqltypes.NewFloat(900 + float64(rng.Intn(110000))/100),
		}))
	}

	suppliers := db.Create(schema.NewTable("suppliers",
		schema.Column{Name: "s_suppkey", Type: schema.TInt},
		schema.Column{Name: "s_name", Type: schema.TString},
		schema.Column{Name: "s_acctbal", Type: schema.TFloat},
		schema.Column{Name: "s_address", Type: schema.TString},
		schema.Column{Name: "s_phone", Type: schema.TString},
		schema.Column{Name: "s_comment", Type: schema.TString},
		schema.Column{Name: "s_nation", Type: schema.TString},
		schema.Column{Name: "s_region", Type: schema.TString},
	))
	suppliers.Def.AddKey("s_suppkey")
	for i := 0; i < nSupp; i++ {
		nation, region := nationOf(rng.Intn(25))
		must(suppliers.Insert(storage.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("Supplier#%09d", i+1)),
			sqltypes.NewFloat(-999.99 + float64(rng.Intn(1100000))/100),
			sqltypes.NewString(fmt.Sprintf("addr-%d", i+1)),
			sqltypes.NewString(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
			sqltypes.NewString("generated supplier"),
			sqltypes.NewString(nation),
			sqltypes.NewString(region),
		}))
	}

	partsupp := db.Create(schema.NewTable("partsupp",
		schema.Column{Name: "ps_partkey", Type: schema.TInt},
		schema.Column{Name: "ps_suppkey", Type: schema.TInt},
		schema.Column{Name: "ps_availqty", Type: schema.TInt},
		schema.Column{Name: "ps_supplycost", Type: schema.TFloat},
	))
	partsupp.Def.AddKey("ps_partkey", "ps_suppkey")
	// Four suppliers per part, like TPC-D.
	perPart := nPS / nParts
	if perPart < 1 {
		perPart = 1
	}
	for p := 1; p <= nParts; p++ {
		start := rng.Intn(nSupp)
		for j := 0; j < perPart; j++ {
			sk := (start+j*(nSupp/perPart+1))%nSupp + 1
			must(partsupp.Insert(storage.Row{
				sqltypes.NewInt(int64(p)),
				sqltypes.NewInt(int64(sk)),
				sqltypes.NewInt(int64(1 + rng.Intn(9999))),
				sqltypes.NewFloat(1 + float64(rng.Intn(99900))/100),
			}))
		}
	}

	lineitem := db.Create(schema.NewTable("lineitem",
		schema.Column{Name: "l_orderkey", Type: schema.TInt},
		schema.Column{Name: "l_partkey", Type: schema.TInt},
		schema.Column{Name: "l_suppkey", Type: schema.TInt},
		schema.Column{Name: "l_quantity", Type: schema.TInt},
		schema.Column{Name: "l_extendedprice", Type: schema.TFloat},
	))
	lineitem.Def.AddKey("l_orderkey")
	for i := 0; i < nLI; i++ {
		pk := 1 + rng.Intn(nParts)
		qty := 1 + rng.Intn(50)
		must(lineitem.Insert(storage.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewInt(int64(pk)),
			sqltypes.NewInt(int64(1 + rng.Intn(nSupp))),
			sqltypes.NewInt(int64(qty)),
			sqltypes.NewFloat(float64(qty) * (900 + float64(rng.Intn(110000))/100)),
		}))
	}

	customers := db.Create(schema.NewTable("customers",
		schema.Column{Name: "c_custkey", Type: schema.TInt},
		schema.Column{Name: "c_name", Type: schema.TString},
		schema.Column{Name: "c_acctbal", Type: schema.TFloat},
		schema.Column{Name: "c_mktsegment", Type: schema.TString},
		schema.Column{Name: "c_nation", Type: schema.TString},
		schema.Column{Name: "c_region", Type: schema.TString},
	))
	customers.Def.AddKey("c_custkey")
	for i := 0; i < nCust; i++ {
		nation, region := nationOf(rng.Intn(25))
		must(customers.Insert(storage.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", i+1)),
			sqltypes.NewFloat(-999.99 + float64(rng.Intn(1100000))/100),
			sqltypes.NewString(Segments[rng.Intn(len(Segments))]),
			sqltypes.NewString(nation),
			sqltypes.NewString(region),
		}))
	}

	if !cfg.SkipIndexes {
		CreateAllIndexes(db)
	}
	return db
}

// CreateAllIndexes builds the indexes the paper assumes ("indexes
// were available on all the necessary attributes").
func CreateAllIndexes(db *storage.DB) {
	for table, cols := range map[string][]string{
		"parts":     {"p_partkey"},
		"suppliers": {"s_suppkey", "s_nation", "s_region"},
		"partsupp":  {"ps_partkey", "ps_suppkey"},
		"lineitem":  {"l_partkey"},
		"customers": {"c_custkey", "c_nation", "c_mktsegment"},
	} {
		t := db.Table(table)
		if t == nil {
			continue
		}
		for _, c := range cols {
			must(t.CreateIndex(c))
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
