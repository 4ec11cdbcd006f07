//! Minimal RFC-4180-style CSV reading/writing so real ER-Magellan exports
//! (`tableA.csv`, `tableB.csv`, `train.csv` with `ltable_`/`rtable_`
//! prefixed columns) can be dropped into the pipeline.

use crate::dataset::{Dataset, Label, LabeledPair};
use crate::schema::{EntityPair, Record, Schema};
use std::sync::Arc;

/// Parse CSV text into rows of fields. Supports quoted fields, embedded
/// commas/newlines inside quotes, and `""` escapes.
pub fn parse_csv(input: &str) -> Result<Vec<Vec<String>>, crate::DataError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(crate::DataError::CsvParse {
                            line: rows.len() + 1,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // swallow; \r\n handled by the \n branch
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(crate::DataError::CsvParse {
            line: rows.len() + 1,
            message: "unterminated quoted field".into(),
        });
    }
    if any && (!field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Escape and serialise rows into CSV text (always quotes fields containing
/// commas, quotes or newlines).
pub fn write_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, f) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if f.contains([',', '"', '\n', '\r']) {
                out.push('"');
                out.push_str(&f.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(f);
            }
        }
        out.push('\n');
    }
    out
}

/// Load a labelled pair dataset from a single "joined" CSV with the
/// DeepMatcher convention: a `label` column (0/1), `ltable_<attr>` and
/// `rtable_<attr>` columns. Extra columns (like `id`) are ignored.
pub fn dataset_from_joined_csv(name: &str, text: &str) -> Result<Dataset, crate::DataError> {
    let rows = parse_csv(text)?;
    if rows.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 0,
            message: "empty CSV".into(),
        });
    }
    let header = &rows[0];
    let label_col = header
        .iter()
        .position(|h| h.eq_ignore_ascii_case("label"))
        .ok_or_else(|| crate::DataError::CsvParse {
            line: 1,
            message: "missing 'label' column".into(),
        })?;

    // Collect attribute names present on BOTH sides, preserving order of the
    // left columns.
    let mut attrs: Vec<String> = Vec::new();
    let mut lcols: Vec<usize> = Vec::new();
    let mut rcols: Vec<usize> = Vec::new();
    for (i, h) in header.iter().enumerate() {
        if let Some(attr) = h.strip_prefix("ltable_") {
            if let Some(j) = header.iter().position(|h2| h2 == &format!("rtable_{attr}")) {
                attrs.push(attr.to_string());
                lcols.push(i);
                rcols.push(j);
            }
        }
    }
    if attrs.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 1,
            message: "no aligned ltable_/rtable_ columns found".into(),
        });
    }
    let schema = Arc::new(Schema::new(attrs));

    let mut examples = Vec::with_capacity(rows.len() - 1);
    for (line_no, row) in rows.iter().enumerate().skip(1) {
        if row.len() != header.len() {
            return Err(crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("expected {} fields, got {}", header.len(), row.len()),
            });
        }
        let label_raw = row[label_col].trim();
        let label = match label_raw {
            "1" => Label::Match,
            "0" => Label::NonMatch,
            other => {
                return Err(crate::DataError::CsvParse {
                    line: line_no + 1,
                    message: format!("label must be 0 or 1, got {other:?}"),
                })
            }
        };
        let lvals: Vec<String> = lcols.iter().map(|&c| row[c].clone()).collect();
        let rvals: Vec<String> = rcols.iter().map(|&c| row[c].clone()).collect();
        let l = Record::new(line_no as u64 * 2, lvals);
        let r = Record::new(line_no as u64 * 2 + 1, rvals);
        let pair = EntityPair::new(Arc::clone(&schema), l, r)?;
        examples.push(LabeledPair { pair, label });
    }
    Dataset::new(name, schema, examples)
}

/// Serialise a dataset back into joined-CSV form (round-trip of
/// [`dataset_from_joined_csv`]).
pub fn dataset_to_joined_csv(dataset: &Dataset) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(dataset.len() + 1);
    let mut header = vec!["label".to_string()];
    for a in dataset.schema().names() {
        header.push(format!("ltable_{a}"));
    }
    for a in dataset.schema().names() {
        header.push(format!("rtable_{a}"));
    }
    rows.push(header);
    for ex in dataset.examples() {
        let mut row = vec![if ex.label.is_match() { "1" } else { "0" }.to_string()];
        row.extend(ex.pair.left().values().iter().cloned());
        row.extend(ex.pair.right().values().iter().cloned());
        rows.push(row);
    }
    write_csv(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_rows() {
        let rows = parse_csv("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parse_quoted_fields_with_commas_and_newlines() {
        let rows = parse_csv("name,desc\n\"TV, 55\",\"line1\nline2\"\n").unwrap();
        assert_eq!(rows[1][0], "TV, 55");
        assert_eq!(rows[1][1], "line1\nline2");
    }

    #[test]
    fn parse_escaped_quotes() {
        let rows = parse_csv("a\n\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(rows[1][0], "he said \"hi\"");
    }

    #[test]
    fn parse_handles_missing_trailing_newline_and_crlf() {
        let rows = parse_csv("a,b\r\n1,2").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(matches!(
            parse_csv("a\n\"oops"),
            Err(crate::DataError::CsvParse { .. })
        ));
    }

    #[test]
    fn parse_rejects_stray_quote() {
        assert!(parse_csv("ab\"c\n").is_err());
    }

    #[test]
    fn parse_empty_input_is_empty() {
        assert!(parse_csv("").unwrap().is_empty());
    }

    #[test]
    fn write_then_parse_round_trips() {
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with\"quote".to_string(), "multi\nline".to_string()],
        ];
        let text = write_csv(&rows);
        assert_eq!(parse_csv(&text).unwrap(), rows);
    }

    const JOINED: &str = "\
id,label,ltable_title,ltable_brand,rtable_title,rtable_brand
0,1,sony tv,sony,sony television,sony
1,0,lg monitor,lg,dell laptop,dell
";

    #[test]
    fn joined_csv_loads_dataset() {
        let d = dataset_from_joined_csv("demo", JOINED).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(
            d.schema().names().collect::<Vec<_>>(),
            vec!["title", "brand"]
        );
        assert_eq!(d.match_count(), 1);
        assert_eq!(d.examples()[0].pair.left().value(0), "sony tv");
        assert_eq!(d.examples()[1].pair.right().value(1), "dell");
    }

    #[test]
    fn joined_csv_requires_label_and_aligned_columns() {
        assert!(dataset_from_joined_csv("x", "a,b\n1,2\n").is_err());
        assert!(dataset_from_joined_csv("x", "label,ltable_a\n1,v\n").is_err());
    }

    #[test]
    fn joined_csv_rejects_bad_labels_and_ragged_rows() {
        let bad_label = "label,ltable_a,rtable_a\n2,x,y\n";
        assert!(dataset_from_joined_csv("x", bad_label).is_err());
        let ragged = "label,ltable_a,rtable_a\n1,x\n";
        assert!(dataset_from_joined_csv("x", ragged).is_err());
    }

    #[test]
    fn dataset_round_trips_through_joined_csv() {
        let d = dataset_from_joined_csv("demo", JOINED).unwrap();
        let text = dataset_to_joined_csv(&d);
        let d2 = dataset_from_joined_csv("demo2", &text).unwrap();
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.match_count(), d.match_count());
        assert_eq!(
            d2.examples()[0].pair.left().value(0),
            d.examples()[0].pair.left().value(0)
        );
    }
}

/// Load a dataset from the ER-Magellan distribution format: two record
/// tables (each with an `id` column plus attribute columns) and a pair
/// file with `ltable_id,rtable_id,label` rows referencing them.
///
/// The schema is the ordered intersection of the two tables' non-id
/// columns (they are identical in the benchmark); extra columns on either
/// side are ignored.
pub fn dataset_from_magellan(
    name: &str,
    table_a: &str,
    table_b: &str,
    pairs: &str,
) -> Result<Dataset, crate::DataError> {
    let (a_schema, a_records) = parse_record_table(table_a, 1)?;
    let (b_schema, b_records) = parse_record_table(table_b, 2)?;
    // Ordered intersection of attribute names.
    let attrs: Vec<String> = a_schema
        .iter()
        .filter(|a| b_schema.contains(a))
        .cloned()
        .collect();
    if attrs.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 1,
            message: "tables share no attribute columns".into(),
        });
    }
    let project = |schema: &[String], values: &[String]| -> Vec<String> {
        attrs
            .iter()
            .map(|a| {
                let idx = schema
                    .iter()
                    .position(|s| s == a)
                    .expect("attr from intersection");
                values[idx].clone()
            })
            .collect()
    };
    let schema = Arc::new(Schema::new(attrs.clone()));

    let rows = parse_csv(pairs)?;
    if rows.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 0,
            message: "empty pair file".into(),
        });
    }
    let header = &rows[0];
    let col = |n: &str| {
        header
            .iter()
            .position(|h| h.eq_ignore_ascii_case(n))
            .ok_or_else(|| crate::DataError::CsvParse {
                line: 1,
                message: format!("missing '{n}' column"),
            })
    };
    let (lc, rc, label_c) = (col("ltable_id")?, col("rtable_id")?, col("label")?);

    let mut examples = Vec::with_capacity(rows.len() - 1);
    for (line_no, row) in rows.iter().enumerate().skip(1) {
        if row.len() != header.len() {
            return Err(crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("expected {} fields, got {}", header.len(), row.len()),
            });
        }
        let lid: u64 = row[lc]
            .trim()
            .parse()
            .map_err(|_| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("bad ltable_id {:?}", row[lc]),
            })?;
        let rid: u64 = row[rc]
            .trim()
            .parse()
            .map_err(|_| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("bad rtable_id {:?}", row[rc]),
            })?;
        let label = match row[label_c].trim() {
            "1" => Label::Match,
            "0" => Label::NonMatch,
            other => {
                return Err(crate::DataError::CsvParse {
                    line: line_no + 1,
                    message: format!("label must be 0 or 1, got {other:?}"),
                })
            }
        };
        let lvals = a_records
            .get(&lid)
            .ok_or_else(|| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("ltable_id {lid} not in table A"),
            })?;
        let rvals = b_records
            .get(&rid)
            .ok_or_else(|| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("rtable_id {rid} not in table B"),
            })?;
        let pair = EntityPair::new(
            Arc::clone(&schema),
            Record::new(lid, project(&a_schema, lvals)),
            Record::new(rid, project(&b_schema, rvals)),
        )?;
        examples.push(LabeledPair { pair, label });
    }
    Dataset::new(name, schema, examples)
}

/// A record table loaded from an ER-Magellan `tableA.csv` / `tableB.csv`
/// export: the attribute names plus the records **in file order** (the
/// streaming pipeline relies on that order for deterministic candidate
/// enumeration, so this deliberately does not round-trip through a map).
#[derive(Debug, Clone)]
pub struct RecordTable {
    pub attributes: Vec<String>,
    pub records: Vec<Record>,
}

/// Load one record table CSV (an `id` column plus attribute columns) as
/// a [`RecordTable`]. This is the collection-level entry point the
/// streaming pipeline consumes; [`dataset_from_magellan`] remains the
/// loader for pre-labelled pair files.
pub fn record_table_from_csv(text: &str) -> Result<RecordTable, crate::DataError> {
    let rows = parse_csv(text)?;
    if rows.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 0,
            message: "empty record table".into(),
        });
    }
    let header = &rows[0];
    let id_col = header
        .iter()
        .position(|h| h.eq_ignore_ascii_case("id"))
        .ok_or_else(|| crate::DataError::CsvParse {
            line: 1,
            message: "record table missing 'id' column".into(),
        })?;
    let attributes: Vec<String> = header
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != id_col)
        .map(|(_, h)| h.clone())
        .collect();
    let mut seen = std::collections::HashSet::with_capacity(rows.len() - 1);
    let mut records = Vec::with_capacity(rows.len() - 1);
    for (line_no, row) in rows.iter().enumerate().skip(1) {
        if row.len() != header.len() {
            return Err(crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("expected {} fields, got {}", header.len(), row.len()),
            });
        }
        let id: u64 = row[id_col]
            .trim()
            .parse()
            .map_err(|_| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("bad id {:?}", row[id_col]),
            })?;
        if !seen.insert(id) {
            return Err(crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("duplicate record id {id}"),
            });
        }
        let values: Vec<String> = row
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != id_col)
            .map(|(_, v)| v.clone())
            .collect();
        records.push(Record::new(id, values));
    }
    Ok(RecordTable {
        attributes,
        records,
    })
}

/// A parsed record table: `(attribute names, id → values)`.
type ParsedTable = (Vec<String>, std::collections::HashMap<u64, Vec<String>>);

/// Parse a record table CSV.
fn parse_record_table(text: &str, which: usize) -> Result<ParsedTable, crate::DataError> {
    let rows = parse_csv(text)?;
    if rows.is_empty() {
        return Err(crate::DataError::CsvParse {
            line: 0,
            message: format!("empty record table {which}"),
        });
    }
    let header = &rows[0];
    let id_col = header
        .iter()
        .position(|h| h.eq_ignore_ascii_case("id"))
        .ok_or_else(|| crate::DataError::CsvParse {
            line: 1,
            message: format!("record table {which} missing 'id' column"),
        })?;
    let attrs: Vec<String> = header
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != id_col)
        .map(|(_, h)| h.clone())
        .collect();
    let mut records = std::collections::HashMap::with_capacity(rows.len() - 1);
    for (line_no, row) in rows.iter().enumerate().skip(1) {
        if row.len() != header.len() {
            return Err(crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("expected {} fields, got {}", header.len(), row.len()),
            });
        }
        let id: u64 = row[id_col]
            .trim()
            .parse()
            .map_err(|_| crate::DataError::CsvParse {
                line: line_no + 1,
                message: format!("bad id {:?}", row[id_col]),
            })?;
        let values: Vec<String> = row
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != id_col)
            .map(|(_, v)| v.clone())
            .collect();
        records.insert(id, values);
    }
    Ok((attrs, records))
}

#[cfg(test)]
mod magellan_tests {
    use super::*;

    const TABLE_A: &str = "\
id,title,brand,price
0,sonix tv 55,sonix,499
1,veltron laptop x2,veltron,999
2,koyama blender pro,koyama,59
";
    const TABLE_B: &str = "\
id,title,brand,price
10,sonix television 55in,sonix,489
11,veltron x2 laptop,veltron,950
12,ashford kettle,ashford,39
";
    const PAIRS: &str = "\
ltable_id,rtable_id,label
0,10,1
1,11,1
0,12,0
2,11,0
";

    #[test]
    fn magellan_format_loads() {
        let d = dataset_from_magellan("demo", TABLE_A, TABLE_B, PAIRS).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.match_count(), 2);
        assert_eq!(
            d.schema().names().collect::<Vec<_>>(),
            vec!["title", "brand", "price"]
        );
        let first = &d.examples()[0];
        assert_eq!(first.pair.left().id, 0);
        assert_eq!(first.pair.right().id, 10);
        assert_eq!(first.pair.right().value(0), "sonix television 55in");
    }

    #[test]
    fn magellan_rejects_dangling_ids() {
        let bad_pairs = "ltable_id,rtable_id,label\n99,10,1\n";
        let err = dataset_from_magellan("x", TABLE_A, TABLE_B, bad_pairs).unwrap_err();
        assert!(format!("{err}").contains("not in table A"));
    }

    #[test]
    fn magellan_rejects_missing_columns() {
        assert!(dataset_from_magellan("x", "title\nfoo\n", TABLE_B, PAIRS).is_err());
        let no_label = "ltable_id,rtable_id\n0,10\n";
        assert!(dataset_from_magellan("x", TABLE_A, TABLE_B, no_label).is_err());
        assert!(dataset_from_magellan("x", TABLE_A, TABLE_B, "").is_err());
    }

    #[test]
    fn magellan_intersects_schemas() {
        // Table B with an extra column: intersection drops it.
        let table_b_extra = "\
id,title,brand,price,shipping
10,tv,sonix,489,free
";
        let pairs = "ltable_id,rtable_id,label\n0,10,1\n";
        let d = dataset_from_magellan("x", TABLE_A, table_b_extra, pairs).unwrap();
        assert_eq!(d.schema().len(), 3);
    }

    #[test]
    fn record_table_loads_in_file_order() {
        let t = record_table_from_csv(TABLE_B).unwrap();
        assert_eq!(t.attributes, vec!["title", "brand", "price"]);
        let ids: Vec<u64> = t.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![10, 11, 12]);
        assert_eq!(t.records[0].value(0), "sonix television 55in");
    }

    #[test]
    fn record_table_rejects_duplicates_and_missing_id() {
        let dup = "id,title\n3,a\n3,b\n";
        assert!(record_table_from_csv(dup).is_err());
        assert!(record_table_from_csv("title\nfoo\n").is_err());
        assert!(record_table_from_csv("").is_err());
    }

    #[test]
    fn magellan_pipeline_trains() {
        let d = dataset_from_magellan("demo", TABLE_A, TABLE_B, PAIRS).unwrap();
        // Tiny but structurally valid: splits work and tokenization is sane.
        for ex in d.examples() {
            assert!(ex.pair.token_count() > 0);
        }
    }
}
