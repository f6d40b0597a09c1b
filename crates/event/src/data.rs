//! Flat event meta-data: the paper's "covering event" representation.

use std::fmt;

use crate::intern::AttrId;
use crate::value::AttrValue;

/// Ordered name/value meta-data extracted from an event object.
///
/// This is the low-level representation used for filtering on intermediate
/// nodes (paper Sections 3.2 and 3.4): e.g.
/// `e1 = (symbol,"Foo") (price, 10.0) (volume, 32300)`.
///
/// Attribute order is significant: it follows the event class's schema,
/// which lists attributes from *most general* to *least general*
/// (Section 4.1), so a stage prefix of this list is exactly the attribute
/// set used by a weakened filter.
///
/// Internally names are stored as interned [`AttrId`]s, so the per-hop
/// matching path compares dense `u32`s instead of scanning strings; the
/// string-based API interns (on insertion) or looks up (on query) behind
/// the scenes. On the wire attributes still travel as `(name, value)`
/// pairs — ids are process-local.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventData {
    attrs: Vec<(AttrId, AttrValue)>,
}

impl EventData {
    /// Creates empty meta-data.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates meta-data with room for `cap` attributes.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            attrs: Vec::with_capacity(cap),
        }
    }

    /// Appends an attribute. If the name already exists its value is
    /// replaced in place (order preserved) and the old value returned.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        value: impl Into<AttrValue>,
    ) -> Option<AttrValue> {
        let name = name.into();
        self.insert_id(AttrId::intern(&name), value.into())
    }

    /// Appends an attribute by interned id. If the id already exists its
    /// value is replaced in place (order preserved) and the old value
    /// returned.
    pub fn insert_id(&mut self, id: AttrId, value: impl Into<AttrValue>) -> Option<AttrValue> {
        let value = value.into();
        for (n, v) in &mut self.attrs {
            if *n == id {
                return Some(std::mem::replace(v, value));
            }
        }
        self.attrs.push((id, value));
        None
    }

    /// Looks up an attribute value by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.get_id(AttrId::lookup(name)?)
    }

    /// Looks up an attribute value by interned id — the hot-path lookup:
    /// a scan over dense `u32`s, no string hashing or comparison.
    #[must_use]
    pub fn get_id(&self, id: AttrId) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| *n == id).map(|(_, v)| v)
    }

    /// Whether an attribute with the given name is present.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes an attribute by name, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        let id = AttrId::lookup(name)?;
        let idx = self.attrs.iter().position(|(n, _)| *n == id)?;
        Some(self.attrs.remove(idx).1)
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether there are no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(name, value)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(n, v)| (n.name(), v))
    }

    /// Iterates over `(id, value)` pairs in schema order — the hot-path
    /// view used by the matching indexes.
    pub fn iter_ids(&self) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        self.attrs.iter().map(|(n, v)| (*n, v))
    }

    /// Retains only the attributes whose names satisfy `keep`, preserving
    /// order. This is the *event weakening* primitive: dropping the least
    /// general attributes yields a covering event (paper Proposition 2).
    pub fn retain_attrs(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.attrs.retain(|(n, _)| keep(n.name()));
    }

    /// Returns a copy containing only the named attributes, in schema order.
    #[must_use]
    pub fn project(&self, names: &[&str]) -> EventData {
        let mut out = EventData::with_capacity(names.len());
        for (n, v) in &self.attrs {
            if names.contains(&n.name()) {
                out.attrs.push((*n, v.clone()));
            }
        }
        out
    }
}

impl fmt::Display for EventData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (n, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "({n}, {v})")?;
        }
        if self.attrs.is_empty() {
            f.write_str("()")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, AttrValue)> for EventData {
    fn from_iter<T: IntoIterator<Item = (String, AttrValue)>>(iter: T) -> Self {
        let mut data = EventData::new();
        for (n, v) in iter {
            data.insert(n, v);
        }
        data
    }
}

impl Extend<(String, AttrValue)> for EventData {
    fn extend<T: IntoIterator<Item = (String, AttrValue)>>(&mut self, iter: T) {
        for (n, v) in iter {
            self.insert(n, v);
        }
    }
}

impl IntoIterator for EventData {
    type Item = (String, AttrValue);
    type IntoIter = std::iter::Map<
        std::vec::IntoIter<(AttrId, AttrValue)>,
        fn((AttrId, AttrValue)) -> (String, AttrValue),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.attrs
            .into_iter()
            .map(|(n, v)| (n.name().to_owned(), v))
    }
}

/// Builds [`EventData`] from `(name, value)` literals.
///
/// ```
/// use layercake_event::event_data;
/// let e = event_data! { "symbol" => "Foo", "price" => 10.0 };
/// assert_eq!(e.len(), 2);
/// ```
#[macro_export]
macro_rules! event_data {
    ( $( $name:expr => $value:expr ),* $(,)? ) => {{
        let mut data = $crate::EventData::new();
        $( data.insert($name, $value); )*
        data
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventData {
        event_data! { "symbol" => "Foo", "price" => 10.0, "volume" => 32_300 }
    }

    #[test]
    fn insert_and_get() {
        let e = sample();
        assert_eq!(e.get("symbol"), Some(&AttrValue::from("Foo")));
        assert_eq!(e.get("price"), Some(&AttrValue::Float(10.0)));
        assert_eq!(e.get("volume"), Some(&AttrValue::Int(32_300)));
        assert_eq!(e.get("missing"), None);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn id_lookup_agrees_with_name_lookup() {
        let e = sample();
        let id = AttrId::lookup("price").unwrap();
        assert_eq!(e.get_id(id), e.get("price"));
        let ids: Vec<_> = e.iter_ids().map(|(id, _)| id.name()).collect();
        assert_eq!(ids, ["symbol", "price", "volume"]);
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut e = sample();
        let old = e.insert("price", 11.5);
        assert_eq!(old, Some(AttrValue::Float(10.0)));
        assert_eq!(e.len(), 3);
        // Order preserved: price stays second.
        let names: Vec<_> = e.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["symbol", "price", "volume"]);
    }

    #[test]
    fn remove_shifts_order() {
        let mut e = sample();
        assert_eq!(e.remove("price"), Some(AttrValue::Float(10.0)));
        assert_eq!(e.remove("price"), None);
        assert_eq!(e.len(), 2);
        assert!(!e.contains("price"));
    }

    #[test]
    fn retain_is_event_weakening() {
        // Paper Example 3: e1' = (symbol, "Foo") (price, 10.0) covers e1.
        let mut e = sample();
        e.retain_attrs(|n| n != "volume");
        assert_eq!(e, event_data! { "symbol" => "Foo", "price" => 10.0 });
    }

    #[test]
    fn project_preserves_schema_order() {
        let e = sample();
        let p = e.project(&["volume", "symbol"]);
        let names: Vec<_> = p.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["symbol", "volume"]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = event_data! { "symbol" => "Foo", "price" => 10.0 };
        assert_eq!(e.to_string(), "(symbol, \"Foo\") (price, 10)");
        assert_eq!(EventData::new().to_string(), "()");
    }

    #[test]
    fn from_iterator_dedups() {
        let e: EventData = vec![
            ("a".to_owned(), AttrValue::Int(1)),
            ("a".to_owned(), AttrValue::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get("a"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn into_iterator_yields_all() {
        let pairs: Vec<_> = sample().into_iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "symbol");
    }
}
