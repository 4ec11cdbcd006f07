//! Schemas and records for entity descriptions.
//!
//! EM datasets have the characteristic "paired" shape: every example is a
//! pair of records over the same (aligned) schema. CREW exploits this
//! arrangement of words into attributes as one of its three knowledge
//! sources, so attributes are first-class here.

use std::fmt;
use std::sync::Arc;

/// An ordered list of attribute names shared by both sides of a pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<String>,
}

impl Schema {
    /// Create a schema from attribute names.
    ///
    /// # Panics
    /// Panics if names are empty or duplicated — schemas are built by
    /// generators or dataset loaders, so this is a programming error.
    pub fn new<S: Into<String>>(attributes: Vec<S>) -> Self {
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        assert!(
            !attributes.is_empty(),
            "schema must have at least one attribute"
        );
        for (i, a) in attributes.iter().enumerate() {
            assert!(
                !attributes[..i].contains(a),
                "duplicate attribute name: {a}"
            );
        }
        Schema { attributes }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Attribute name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.attributes[idx]
    }

    /// Index of an attribute name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == name)
    }

    /// Iterate attribute names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|s| s.as_str())
    }
}

/// A single entity description: one string value per schema attribute
/// (empty string models NULL).
#[derive(Debug, PartialEq, Eq)]
pub struct Record {
    /// Source-local identifier (stable across splits; used in reports).
    pub id: u64,
    values: Vec<String>,
}

impl Clone for Record {
    fn clone(&self) -> Self {
        Record {
            id: self.id,
            values: self.values.clone(),
        }
    }

    /// Overwrite `self` with a copy of `source`, reusing the value vector
    /// and every value string's capacity (`Vec::clone_from` forwards to
    /// `String::clone_from` per element). The perturbation engine rebuilds
    /// hundreds of masked pairs per explanation into pooled pairs this way.
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.values.clone_from(&source.values);
    }
}

impl Record {
    /// Create a record; `values` must align with the schema it will be used
    /// with (checked by [`EntityPair::new`]).
    pub fn new(id: u64, values: Vec<String>) -> Self {
        Record { id, values }
    }

    /// Value of attribute `idx`.
    pub fn value(&self, idx: usize) -> &str {
        &self.values[idx]
    }

    /// All values in schema order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Replace the value of one attribute (used by perturbation engines).
    pub fn set_value(&mut self, idx: usize, value: String) {
        self.values[idx] = value;
    }

    /// Mutable access to one attribute value, letting perturbation
    /// engines rewrite cells in place without reallocating the string.
    pub fn value_mut(&mut self, idx: usize) -> &mut String {
        &mut self.values[idx]
    }

    /// Number of attribute values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Concatenate all values into one description string, space-separated,
    /// skipping empties.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            if v.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(v);
        }
        out
    }
}

/// Which record of the pair a word belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Short display tag used in explanation rendering ("L"/"R").
    pub fn tag(self) -> &'static str {
        match self {
            Side::Left => "L",
            Side::Right => "R",
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A candidate pair of entity descriptions over a shared schema.
#[derive(Debug, PartialEq)]
pub struct EntityPair {
    schema: Arc<Schema>,
    left: Record,
    right: Record,
}

impl Clone for EntityPair {
    fn clone(&self) -> Self {
        EntityPair {
            schema: Arc::clone(&self.schema),
            left: self.left.clone(),
            right: self.right.clone(),
        }
    }

    /// Capacity-reusing copy: both records go through
    /// [`Record::clone_from`], and the schema handle is only re-pointed
    /// when it differs.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.schema, &source.schema) {
            self.schema = Arc::clone(&source.schema);
        }
        self.left.clone_from(&source.left);
        self.right.clone_from(&source.right);
    }
}

impl EntityPair {
    /// Build a pair, validating that both records align with the schema.
    pub fn new(schema: Arc<Schema>, left: Record, right: Record) -> Result<Self, crate::DataError> {
        if left.len() != schema.len() {
            return Err(crate::DataError::SchemaMismatch {
                record_id: left.id,
                expected: schema.len(),
                got: left.len(),
            });
        }
        if right.len() != schema.len() {
            return Err(crate::DataError::SchemaMismatch {
                record_id: right.id,
                expected: schema.len(),
                got: right.len(),
            });
        }
        Ok(EntityPair {
            schema,
            left,
            right,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    pub fn left(&self) -> &Record {
        &self.left
    }

    pub fn right(&self) -> &Record {
        &self.right
    }

    /// Record of a given side.
    pub fn record(&self, side: Side) -> &Record {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// Mutable record of a given side (perturbation engine use).
    pub fn record_mut(&mut self, side: Side) -> &mut Record {
        match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        }
    }

    /// Replace a whole record.
    pub fn with_record(&self, side: Side, record: Record) -> Result<Self, crate::DataError> {
        let (l, r) = match side {
            Side::Left => (record, self.right.clone()),
            Side::Right => (self.left.clone(), record),
        };
        EntityPair::new(Arc::clone(&self.schema), l, r)
    }

    /// Total token count across both records.
    pub fn token_count(&self) -> usize {
        em_text::token_count(&self.left.full_text()) + em_text::token_count(&self.right.full_text())
    }
}

impl fmt::Display for EntityPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, name) in self.schema.names().enumerate() {
            writeln!(
                f,
                "{:>12} | {:<40} | {}",
                name,
                self.left.value(i),
                self.right.value(i)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec!["title", "brand", "price"]))
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(1), "brand");
        assert_eq!(s.index_of("price"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["title", "brand", "price"]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn schema_rejects_duplicates() {
        Schema::new(vec!["a", "a"]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn schema_rejects_empty() {
        Schema::new(Vec::<String>::new());
    }

    #[test]
    fn record_full_text_skips_empties() {
        let r = Record::new(1, vec!["Sony TV".into(), "".into(), "499".into()]);
        assert_eq!(r.full_text(), "Sony TV 499");
    }

    #[test]
    fn pair_validates_schema_alignment() {
        let s = schema();
        let ok = Record::new(1, vec!["a".into(), "b".into(), "c".into()]);
        let bad = Record::new(2, vec!["a".into()]);
        assert!(EntityPair::new(Arc::clone(&s), ok.clone(), ok.clone()).is_ok());
        let err = EntityPair::new(s, ok, bad).unwrap_err();
        assert!(matches!(
            err,
            crate::DataError::SchemaMismatch { record_id: 2, .. }
        ));
    }

    #[test]
    fn side_other_and_tags() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
        assert_eq!(Side::Left.tag(), "L");
        assert_eq!(format!("{}", Side::Right), "R");
    }

    #[test]
    fn pair_record_access_and_mutation() {
        let s = schema();
        let l = Record::new(1, vec!["x".into(), "y".into(), "z".into()]);
        let r = Record::new(2, vec!["p".into(), "q".into(), "r".into()]);
        let mut pair = EntityPair::new(s, l, r).unwrap();
        assert_eq!(pair.record(Side::Left).value(0), "x");
        assert_eq!(pair.record(Side::Right).value(2), "r");
        pair.record_mut(Side::Left).set_value(0, "new".into());
        assert_eq!(pair.left().value(0), "new");
    }

    #[test]
    fn with_record_replaces_one_side() {
        let s = schema();
        let l = Record::new(1, vec!["a".into(), "b".into(), "c".into()]);
        let r = Record::new(2, vec!["d".into(), "e".into(), "f".into()]);
        let pair = EntityPair::new(Arc::clone(&s), l, r).unwrap();
        let repl = Record::new(3, vec!["x".into(), "y".into(), "z".into()]);
        let p2 = pair.with_record(Side::Right, repl).unwrap();
        assert_eq!(p2.right().id, 3);
        assert_eq!(p2.left().id, 1);
    }

    #[test]
    fn token_count_sums_both_sides() {
        let s = schema();
        let l = Record::new(1, vec!["one two".into(), "three".into(), "".into()]);
        let r = Record::new(2, vec!["four".into(), "".into(), "5".into()]);
        let pair = EntityPair::new(s, l, r).unwrap();
        assert_eq!(pair.token_count(), 5);
    }
}
