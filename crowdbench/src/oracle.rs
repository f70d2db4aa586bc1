//! Answers computed apart from the serving path: straight from the crawled
//! documents, an independent degree count, `dataflow::sql::query` over an
//! unsharded store, and properties (PageRank mass, CDF shape, the DKW
//! bound). Every check returns `Err(reason)` on a wrong answer.

use crowdnet_core::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use crowdnet_dataflow::{Dataset, ExecCtx};
use crowdnet_json::Value;
use crowdnet_socialsim::{Scale, WorldConfig};
use crowdnet_store::{SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub const NS_USERS: &str = "angellist/users";
pub const NS_COMPANIES: &str = "angellist/companies";
/// The service's cleaning threshold for community detection.
pub const MIN_INVESTMENTS: usize = 4;

/// Generate and crawl the corpus at `1/denom` of the paper's scale, with
/// exactly the configuration `repro --scale 1/<denom> --seed <seed>` uses.
pub fn crawl(seed: u64, denom: u32, telemetry: &Telemetry) -> Result<PipelineOutcome, String> {
    Pipeline::new(pipeline_config(seed, denom, telemetry))
        .run()
        .map_err(|e| format!("pipeline: {e}"))
}

pub fn pipeline_config(seed: u64, denom: u32, telemetry: &Telemetry) -> PipelineConfig {
    let mut cfg = PipelineConfig::default_eval(seed);
    cfg.world = WorldConfig::at_scale(seed, Scale::Fraction(denom));
    cfg.world.seed = seed;
    cfg.telemetry = telemetry.clone();
    cfg
}

/// What the corpus documents say, indexed for checking answers.
#[derive(Default, Clone)]
pub struct Corpus {
    /// `"user:ID"` / `"company:ID"` → document body (last write wins).
    pub entities: HashMap<String, Value>,
    /// Investor → distinct company ids, ascending.
    pub portfolios: BTreeMap<u32, BTreeSet<u32>>,
    /// Company → distinct investor ids, ascending.
    pub backers: BTreeMap<u32, BTreeSet<u32>>,
    pub user_ids: Vec<u32>,
    pub company_ids: Vec<u32>,
}

impl Corpus {
    /// Walk every user and company document of snapshot 0.
    pub fn from_store(store: &Store) -> Result<Corpus, String> {
        let mut corpus = Corpus::default();
        for ns in [NS_COMPANIES, NS_USERS] {
            let docs = store
                .scan_snapshot(ns, SnapshotId(0))
                .map_err(|e| format!("scan {ns}: {e}"))?;
            for doc in docs {
                corpus.absorb(ns, &doc.key, doc.body);
            }
        }
        corpus.user_ids.sort_unstable();
        corpus.user_ids.dedup();
        corpus.company_ids.sort_unstable();
        corpus.company_ids.dedup();
        Ok(corpus)
    }

    /// Account one document: an entity, and for investors their edges.
    pub fn absorb(&mut self, ns: &str, key: &str, body: Value) {
        let id = body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
        if ns == NS_USERS {
            self.user_ids.push(id);
            if body.get("role").and_then(Value::as_str) == Some("investor") {
                let companies: Vec<u32> = body
                    .get("investments")
                    .and_then(Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Value::as_u64)
                    .map(|c| c as u32)
                    .collect();
                for c in companies {
                    self.portfolios.entry(id).or_default().insert(c);
                    self.backers.entry(c).or_default().insert(id);
                }
            }
        } else {
            self.company_ids.push(id);
        }
        self.entities.insert(key.to_string(), body);
    }

    pub fn edge_count(&self) -> usize {
        self.portfolios.values().map(BTreeSet::len).sum()
    }

    /// Investors by degree, descending, ties by ascending id.
    pub fn degree_ranking(&self) -> Vec<(u32, usize)> {
        let mut ranked: Vec<(u32, usize)> = self
            .portfolios
            .iter()
            .map(|(&id, c)| (id, c.len()))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    pub fn filtered_investors(&self) -> usize {
        self.portfolios
            .values()
            .filter(|c| c.len() >= MIN_INVESTMENTS)
            .count()
    }
}

fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Value::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

fn ids(v: Option<&Value>) -> Result<Vec<u32>, String> {
    v.and_then(Value::as_arr)
        .ok_or("missing id list")?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|n| n as u32)
                .ok_or_else(|| "non-integer id".to_string())
        })
        .collect()
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Check one point-read answer against the corpus. `target` is the
/// request target the body answers.
pub fn check_point(corpus: &Corpus, target: &str, body: &[u8]) -> Result<(), String> {
    let v = parse(body)?;
    let segs: Vec<&str> = target
        .split('?')
        .next()
        .unwrap_or_default()
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let id_of = |s: &str| s.parse::<u32>().map_err(|_| format!("bad id in {target}"));
    match segs.as_slice() {
        ["entity", kind, id] => {
            let id = id_of(id)?;
            let want = corpus
                .entities
                .get(&format!("{kind}:{id}"))
                .ok_or_else(|| format!("{target}: not in corpus"))?;
            expect("kind", v.get("kind").and_then(Value::as_str), Some(*kind))?;
            expect(
                "id",
                v.get("id").and_then(Value::as_u64),
                Some(u64::from(id)),
            )?;
            expect("body", v.get("body"), Some(want))
        }
        ["investor", id, "portfolio"] => {
            let id = id_of(id)?;
            let want: Vec<u32> = corpus
                .portfolios
                .get(&id)
                .ok_or_else(|| format!("{target}: not an investor"))?
                .iter()
                .copied()
                .collect();
            expect("companies", ids(v.get("companies"))?, want.clone())?;
            expect(
                "degree",
                v.get("degree").and_then(Value::as_u64),
                Some(want.len() as u64),
            )?;
            match v.get("pagerank").and_then(Value::as_f64) {
                Some(p) if p > 0.0 && p < 1.0 => Ok(()),
                other => Err(format!("pagerank {other:?} outside (0, 1)")),
            }
        }
        ["company", id, "investors"] => {
            let id = id_of(id)?;
            let want: Vec<u32> = corpus
                .backers
                .get(&id)
                .ok_or_else(|| format!("{target}: no investors"))?
                .iter()
                .copied()
                .collect();
            expect("investors", ids(v.get("investors"))?, want.clone())?;
            expect(
                "degree",
                v.get("degree").and_then(Value::as_u64),
                Some(want.len() as u64),
            )
        }
        ["investor", id, "communities"] => {
            let id = id_of(id)?;
            let degree = corpus
                .portfolios
                .get(&id)
                .ok_or_else(|| format!("{target}: not an investor"))?
                .len();
            let filtered = degree >= MIN_INVESTMENTS;
            expect(
                "in_filtered_graph",
                v.get("in_filtered_graph").and_then(Value::as_bool),
                Some(filtered),
            )?;
            let communities = ids(v.get("communities"))?;
            if !filtered && !communities.is_empty() {
                return Err("communities for an investor below the cleaning threshold".into());
            }
            Ok(())
        }
        ["top", "investors"] => check_top_degree(corpus, &v),
        _ => Err(format!("no oracle for {target}")),
    }
}

/// `/top/investors` (by degree): the independent degree count's prefix.
pub fn check_top_degree(corpus: &Corpus, v: &Value) -> Result<(), String> {
    let k = v.get("k").and_then(Value::as_u64).ok_or("missing k")? as usize;
    let got: Vec<(u64, f64)> = v
        .get("investors")
        .and_then(Value::as_arr)
        .ok_or("missing investors")?
        .iter()
        .map(|r| {
            (
                r.get("id").and_then(Value::as_u64).unwrap_or(u64::MAX),
                r.get("score").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let want: Vec<(u64, f64)> = corpus
        .degree_ranking()
        .into_iter()
        .take(k)
        .map(|(id, d)| (u64::from(id), d as f64))
        .collect();
    expect("top-k by degree", got, want)
}

/// `/top/investors?by=pagerank&k=ALL`: every investor once, positive
/// scores summing to 1, sorted descending.
pub fn check_pagerank(corpus: &Corpus, body: &[u8]) -> Result<(), String> {
    let v = parse(body)?;
    let rows = v
        .get("investors")
        .and_then(Value::as_arr)
        .ok_or("missing investors")?;
    let mut seen = BTreeSet::new();
    let mut sum = 0.0;
    let mut prev = f64::INFINITY;
    for r in rows {
        let id = r
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("row without id")? as u32;
        let s = r
            .get("score")
            .and_then(Value::as_f64)
            .ok_or("row without score")?;
        if s.is_nan() || s <= 0.0 {
            return Err(format!("investor {id} has pagerank {s}"));
        }
        if s > prev {
            return Err(format!("pagerank not sorted at investor {id}"));
        }
        prev = s;
        sum += s;
        seen.insert(id);
    }
    let want: BTreeSet<u32> = corpus.portfolios.keys().copied().collect();
    if seen != want {
        return Err(format!(
            "ranked {} investors, corpus has {}",
            seen.len(),
            want.len()
        ));
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(format!("pagerank sums to {sum}"));
    }
    Ok(())
}

/// `/communities`: counts consistent, the filtered population right.
pub fn check_communities(corpus: &Corpus, body: &[u8]) -> Result<(), String> {
    let v = parse(body)?;
    let list = v
        .get("communities")
        .and_then(Value::as_arr)
        .ok_or("missing communities")?;
    expect(
        "count",
        v.get("count").and_then(Value::as_u64),
        Some(list.len() as u64),
    )?;
    expect(
        "filtered_investors",
        v.get("filtered_investors").and_then(Value::as_u64),
        Some(corpus.filtered_investors() as u64),
    )?;
    for c in list {
        match c.get("size").and_then(Value::as_u64) {
            Some(s) if s > 0 && s as usize <= corpus.filtered_investors() => {}
            other => return Err(format!("community size {other:?}")),
        }
    }
    Ok(())
}

/// The `/sql` answer over `ns`, computed by `dataflow::sql::query` over
/// an unsharded store's canonical scan of snapshot 0.
pub fn sql_answer(store: &Store, ns: &str, sql: &str) -> Result<Value, String> {
    let parts = store
        .scan_partitions(ns, SnapshotId(0))
        .map_err(|e| format!("scan {ns}: {e}"))?;
    let docs = Dataset::from_partitions(parts, ExecCtx::new(1)).map(|d| d.body);
    let table = crowdnet_dataflow::sql::query(sql, docs).map_err(|e| format!("sql: {e}"))?;
    Ok(Value::Arr(vec![
        Value::Arr(table.columns.into_iter().map(Value::from).collect()),
        Value::Arr(table.rows.into_iter().map(Value::Arr).collect()),
    ]))
}

/// Compare a `/sql` response body with [`sql_answer`]'s output.
pub fn check_sql(want: &Value, body: &[u8]) -> Result<(), String> {
    let v = parse(body)?;
    if v.get("truncated").and_then(Value::as_bool) != Some(false) {
        return Err("truncated or malformed sql answer".into());
    }
    let got = Value::Arr(vec![
        v.get("columns").cloned().unwrap_or(Value::Null),
        v.get("rows").cloned().unwrap_or(Value::Null),
    ]);
    if same_json(&got, want) {
        Ok(())
    } else {
        Err(format!(
            "sql answer {} != oracle {}",
            got.to_compact(),
            want.to_compact()
        ))
    }
}

/// Structural equality with floats compared to 1e-9 relative.
fn same_json(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_json(p, q))
        }
        (Value::Obj(_), Value::Obj(_)) => a == b,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(p), Some(q)) => (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0),
            _ => a == b,
        },
    }
}

// ---- repro-batch checks ---------------------------------------------------

/// The §3 table rows `repro dataset-stats` prints, against the store's own
/// namespace counts.
pub fn check_section3(stdout: &str, store: &Store) -> Result<(), String> {
    let rows = [
        ("AngelList companies", "angellist/companies"),
        ("CrunchBase profiles", "crunchbase/companies"),
        ("Facebook profiles", "facebook/pages"),
        ("Twitter profiles", "twitter/profiles"),
        ("AngelList users", "angellist/users"),
    ];
    for (label, ns) in rows {
        let printed = stdout
            .lines()
            .find(|l| l.starts_with(label))
            .and_then(|l| l[label.len()..].split_whitespace().next())
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("§3 row {label:?} missing"))?;
        let stored = store.doc_count(ns).map_err(|e| format!("{ns}: {e}"))?;
        expect(label, printed, stored)?;
    }
    Ok(())
}

/// Figure 3's CDF series (`investments,cdf` CSV): non-decreasing in both
/// columns and ending at 1.
pub fn check_cdf_csv(csv: &str) -> Result<(), String> {
    let mut last = (f64::NEG_INFINITY, 0.0);
    let mut rows = 0;
    for line in csv.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let mut cols = line.split(',').map(|c| c.trim().parse::<f64>());
        let (Some(Ok(x)), Some(Ok(y))) = (cols.next(), cols.next()) else {
            return Err(format!("bad CDF row {line:?}"));
        };
        if x < last.0 || y < last.1 || !(0.0..=1.0 + 1e-12).contains(&y) {
            return Err(format!("CDF not non-decreasing at {line:?}"));
        }
        last = (x, y);
        rows += 1;
    }
    if rows == 0 || (last.1 - 1.0).abs() > 1e-9 {
        return Err(format!("CDF ends at {} after {rows} rows", last.1));
    }
    Ok(())
}

/// Figure 4's printed DKW ε at 99% against √(ln(2/α)/2n) for the printed n.
pub fn check_dkw(stdout: &str) -> Result<(), String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("global sample:"))
        .ok_or("fig4 global sample line missing")?;
    let n: f64 = line["global sample:".len()..]
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("fig4 sample count missing")?;
    let eps: f64 = line
        .split("DKW eps(99%) = ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or("fig4 DKW epsilon missing")?;
    let want = ((2.0f64 / 0.01).ln() / (2.0 * n)).sqrt();
    // Printed with five decimals.
    if (eps - want).abs() > 0.6e-5 {
        return Err(format!("DKW eps {eps} for n={n}, want {want:.5}"));
    }
    Ok(())
}

/// The investor-graph experiment's edge count against the corpus walk.
pub fn check_graph_edges(stdout: &str, corpus: &Corpus) -> Result<(), String> {
    let edges = investor_graph_edges(stdout)?;
    expect("investor graph edges", edges, corpus.edge_count())
}

fn investor_graph_edges(stdout: &str) -> Result<usize, String> {
    let section = stdout
        .split("=== Investor graph structure")
        .nth(1)
        .ok_or("investor-graph section missing")?;
    section
        .lines()
        .find_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            words
                .iter()
                .position(|w| w.trim_end_matches([',', ';', ':']) == "edges")
                .and_then(|i| {
                    // "<n> edges" or "edges: <n>"
                    let before = i.checked_sub(1).and_then(|j| words.get(j));
                    let after = words.get(i + 1);
                    [before, after]
                        .into_iter()
                        .flatten()
                        .find_map(|w| w.trim_end_matches([',', ';']).replace(',', "").parse().ok())
                })
        })
        .ok_or_else(|| "investor-graph edge count missing".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;

    fn corpus() -> Corpus {
        let mut c = Corpus::default();
        c.absorb(
            NS_COMPANIES,
            "company:10",
            obj! {"id" => 10u64, "name" => "a"},
        );
        c.absorb(
            NS_COMPANIES,
            "company:11",
            obj! {"id" => 11u64, "name" => "b"},
        );
        for (id, inv) in [
            (1u64, vec![10u64, 11]),
            (2, vec![10]),
            (3, vec![11, 10, 10]),
        ] {
            let body = obj! {
                "id" => id,
                "role" => "investor",
                "investments" => Value::Arr(inv.into_iter().map(Value::from).collect()),
            };
            c.absorb(NS_USERS, &format!("user:{id}"), body);
        }
        c.absorb(NS_USERS, "user:4", obj! {"id" => 4u64, "role" => "founder"});
        c
    }

    #[test]
    fn point_oracles_accept_right_and_reject_corrupted_answers() {
        let c = corpus();
        let entity = obj! {"kind" => "user", "id" => 4u64, "body" => c.entities["user:4"].clone()};
        check_point(&c, "/entity/user/4", entity.to_compact().as_bytes()).unwrap();
        let wrong = obj! {"kind" => "user", "id" => 4u64, "body" => obj! {"id" => 5u64}};
        assert!(check_point(&c, "/entity/user/4", wrong.to_compact().as_bytes()).is_err());

        let ok = r#"{"id":3,"degree":2,"pagerank":0.2,"companies":[10,11]}"#;
        check_point(&c, "/investor/3/portfolio", ok.as_bytes()).unwrap();
        let bad = r#"{"id":3,"degree":2,"pagerank":0.2,"companies":[10,12]}"#;
        assert!(check_point(&c, "/investor/3/portfolio", bad.as_bytes()).is_err());

        let ok = r#"{"id":10,"degree":3,"investors":[1,2,3]}"#;
        check_point(&c, "/company/10/investors", ok.as_bytes()).unwrap();
        let bad = r#"{"id":10,"degree":2,"investors":[1,2]}"#;
        assert!(check_point(&c, "/company/10/investors", bad.as_bytes()).is_err());

        let ok = r#"{"id":1,"in_filtered_graph":false,"communities":[]}"#;
        check_point(&c, "/investor/1/communities", ok.as_bytes()).unwrap();
        let bad = r#"{"id":1,"in_filtered_graph":true,"communities":[0]}"#;
        assert!(check_point(&c, "/investor/1/communities", bad.as_bytes()).is_err());

        let ok = r#"{"by":"degree","k":2,"investors":[{"id":1,"score":2.0},{"id":3,"score":2.0}]}"#;
        check_point(&c, "/top/investors?k=2", ok.as_bytes()).unwrap();
        let bad =
            r#"{"by":"degree","k":2,"investors":[{"id":3,"score":2.0},{"id":1,"score":2.0}]}"#;
        assert!(check_point(&c, "/top/investors?k=2", bad.as_bytes()).is_err());
    }

    #[test]
    fn pagerank_and_community_oracles_reject_corruption() {
        let c = corpus();
        let ok =
            r#"{"investors":[{"id":1,"score":0.5},{"id":3,"score":0.3},{"id":2,"score":0.2}]}"#;
        check_pagerank(&c, ok.as_bytes()).unwrap();
        for bad in [
            r#"{"investors":[{"id":1,"score":0.5},{"id":3,"score":0.3},{"id":2,"score":0.3}]}"#,
            r#"{"investors":[{"id":1,"score":0.3},{"id":3,"score":0.5},{"id":2,"score":0.2}]}"#,
            r#"{"investors":[{"id":1,"score":0.8},{"id":3,"score":0.2}]}"#,
        ] {
            assert!(check_pagerank(&c, bad.as_bytes()).is_err(), "{bad}");
        }
        let ok = r#"{"count":0,"filtered_investors":0,"communities":[]}"#;
        check_communities(&c, ok.as_bytes()).unwrap();
        let bad = r#"{"count":1,"filtered_investors":0,"communities":[]}"#;
        assert!(check_communities(&c, bad.as_bytes()).is_err());
    }

    #[test]
    fn sql_oracle_matches_the_dataflow_answer_and_rejects_corruption() {
        let store = Store::memory(2);
        for i in 0..20u64 {
            let body = obj! {"id" => i, "role" => if i % 3 == 0 { "investor" } else { "founder" }};
            store
                .put(
                    NS_USERS,
                    crowdnet_store::Document::new(format!("user:{i}"), body),
                )
                .unwrap();
        }
        let sql = "SELECT role, COUNT(*) AS n FROM docs GROUP BY role ORDER BY role";
        let want = sql_answer(&store, NS_USERS, sql).unwrap();
        let ok = r#"{"columns":["role","n"],"rows":[["founder",13],["investor",7]],"row_count":2,"truncated":false}"#;
        check_sql(&want, ok.as_bytes()).unwrap();
        let bad = r#"{"columns":["role","n"],"rows":[["founder",12],["investor",7]],"row_count":2,"truncated":false}"#;
        assert!(check_sql(&want, bad.as_bytes()).is_err());
    }

    #[test]
    fn batch_oracles_reject_corrupted_output() {
        check_cdf_csv("investments,cdf\n1,0.5\n2,0.8\n5,1\n").unwrap();
        assert!(check_cdf_csv("investments,cdf\n1,0.5\n2,0.4\n5,1\n").is_err());
        assert!(check_cdf_csv("investments,cdf\n1,0.5\n2,0.8\n").is_err());

        let n = 20_000.0f64;
        let eps = ((2.0f64 / 0.01).ln() / (2.0 * n)).sqrt();
        let line = format!(
            "global sample: 20000 pairs, mean shared 0.0100, DKW eps(99%) = {eps:.5} (paper)"
        );
        check_dkw(&line).unwrap();
        let wrong = format!(
            "global sample: 20000 pairs, mean shared 0.0100, DKW eps(99%) = {:.5} (paper)",
            eps * 1.1
        );
        assert!(check_dkw(&wrong).is_err());

        let c = corpus();
        let out =
            "=== Investor graph structure (paper §5.1) ===\n3 investors, 2 companies, 5 edges\n";
        check_graph_edges(out, &c).unwrap();
        let out =
            "=== Investor graph structure (paper §5.1) ===\n3 investors, 2 companies, 6 edges\n";
        assert!(check_graph_edges(out, &c).is_err());

        let store = Store::memory(1);
        store
            .put(
                "angellist/companies",
                crowdnet_store::Document::new("company:1", obj! {"id" => 1u64}),
            )
            .unwrap();
        for ns in [
            "crunchbase/companies",
            "facebook/pages",
            "twitter/profiles",
            "angellist/users",
        ] {
            store.new_snapshot(ns).unwrap();
        }
        let table = "AngelList companies        1         744,036\nCrunchBase profiles        0\nFacebook profiles          0\nTwitter profiles           0\nAngelList users            0\n";
        check_section3(table, &store).unwrap();
        assert!(check_section3(
            &table.replace("companies        1", "companies        2"),
            &store
        )
        .is_err());
    }
}
