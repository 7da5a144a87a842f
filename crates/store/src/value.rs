//! The value domain of the relational substrate.
//!
//! The tabular XML encoding and all intermediate results only need a small
//! set of scalar types: 64-bit integers (`pre`, `size`, `level`, surrogate
//! ids), decimals (`data` column), strings (`name`, `value`), booleans and
//! SQL NULL.  Values carry a total order (used by B-trees, sorting and the
//! `ORDER BY` plan tail) in which the numeric types compare numerically with
//! each other, NULL sorts first and strings sort last.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / absent XML property.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Decimal (xs:decimal image of the `data` column).
    Dec(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Is this the NULL value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Dec(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer (or an integral
    /// decimal).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Dec(d) if d.fract() == 0.0 => Some(*d as i64),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank of the value's type in the total order (`Null < Bool < numeric <
    /// Str`).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Dec(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// SQL-style three-valued comparison used by predicate evaluation:
    /// returns `None` when either side is NULL (unknown truth value).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }

    /// Numeric addition with Int/Dec promotion; NULL-propagating, and NULL
    /// for non-numeric operands.  An `Int + Int` sum that overflows `i64`
    /// promotes to `Dec`, as `Int + Dec` does.  This is the single `+`
    /// semantics shared by the SQL executor's scalar expressions and the
    /// algebra evaluator.
    pub fn numeric_add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(x), Value::Int(y)) => match x.checked_add(*y) {
                Some(sum) => Value::Int(sum),
                None => Value::Dec(*x as f64 + *y as f64),
            },
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(x), Some(y)) => Value::Dec(x + y),
                _ => Value::Null,
            },
        }
    }
}

impl std::ops::Add for &Value {
    type Output = Value;

    fn add(self, rhs: &Value) -> Value {
        self.numeric_add(rhs)
    }
}

/// Hash a composite key without materializing an owned key vector — the
/// hash-join hot path hashes borrowed `&Value` slices on both the build and
/// the probe side and verifies candidate matches by value comparison.
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Canonical total order over `f64`: the usual numeric order, `-0.0` equal
/// to `0.0`, and every NaN equal to every other NaN and *greater* than any
/// non-NaN number.  This is the order [`Value::cmp`] gives the numeric
/// types — `partial_cmp(..).unwrap_or(Equal)` would make NaN compare equal
/// to everything, which is not transitive and corrupts sort-key total
/// order — and the typed sort kernels must agree with it exactly.
#[inline]
pub fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(ord) => ord,
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp is total on non-NaN"),
        },
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(_) | Dec(_), Int(_) | Dec(_)) => {
                let a = self.as_f64().unwrap();
                let b = other.as_f64().unwrap();
                cmp_f64_total(a, b)
            }
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Dec must hash identically when they are numerically
            // equal (Eq treats them as equal).
            Value::Int(_) | Value::Dec(_) => {
                2u8.hash(state);
                let f = self.as_f64().unwrap();
                // Normalize -0.0 to 0.0 and every NaN payload to the one
                // canonical NaN so values that compare equal (under
                // [`cmp_f64_total`]) hash equally.
                let f = if f == 0.0 {
                    0.0
                } else if f.is_nan() {
                    f64::NAN
                } else {
                    f
                };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Dec(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Dec(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality_and_order() {
        assert_eq!(Value::Int(5), Value::Dec(5.0));
        assert!(Value::Int(5) < Value::Dec(5.5));
        assert!(Value::Dec(4.9) < Value::Int(5));
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Dec(5.0)));
    }

    #[test]
    fn type_order_is_total() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Dec(0.5),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[4], Value::str("a"));
    }

    #[test]
    fn sql_cmp_propagates_null() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(1)), Some(Ordering::Equal));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Dec(7.5).as_i64(), None);
        assert_eq!(Value::Dec(7.0).as_i64(), Some(7));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("s").as_f64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    #[test]
    fn nan_has_a_canonical_total_order() {
        // NaN is a legal xs:decimal image in intermediate arithmetic; the
        // sort tail needs `cmp` to stay a *total* order in its presence.
        let nan = Value::Dec(f64::NAN);
        // All NaNs are equal to each other — whatever their payload bits —
        // and greater than every other number, but still below strings.
        let other_nan = Value::Dec(f64::from_bits(f64::NAN.to_bits() ^ 1));
        assert_eq!(nan.cmp(&other_nan), Ordering::Equal);
        assert_eq!(nan, other_nan);
        assert_eq!(hash_of(&nan), hash_of(&other_nan));
        assert!(nan > Value::Dec(f64::INFINITY));
        assert!(nan > Value::Int(i64::MAX));
        assert!(nan < Value::str(""));
        assert!(Value::Dec(f64::NEG_INFINITY) < nan);
        // Transitivity check that the old `unwrap_or(Equal)` failed:
        // 1 < NaN and NaN > 2, never 1 == NaN == 2.
        assert_ne!(Value::Int(1), nan);
        assert_ne!(nan, Value::Int(2));
        let mut vals = [nan.clone(), Value::Int(3), Value::Dec(0.5), nan];
        vals.sort();
        assert_eq!(vals[0], Value::Dec(0.5));
        assert_eq!(vals[1], Value::Int(3));
        assert!(matches!(vals[2], Value::Dec(d) if d.is_nan()));
    }

    #[test]
    fn cmp_f64_total_agrees_with_value_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    cmp_f64_total(a, b),
                    Value::Dec(a).cmp(&Value::Dec(b)),
                    "cmp_f64_total({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(hash_of(&Value::Dec(-0.0)), hash_of(&Value::Dec(0.0)));
        assert_eq!(Value::Dec(-0.0), Value::Int(0));
    }

    #[test]
    fn numeric_add_promotes_and_propagates_null() {
        assert_eq!(Value::Int(1).numeric_add(&Value::Int(2)), Value::Int(3));
        assert_eq!(&Value::Int(1) + &Value::Dec(0.5), Value::Dec(1.5));
        assert_eq!(&Value::Null + &Value::Int(1), Value::Null);
        assert_eq!(&Value::str("x") + &Value::Int(1), Value::Null);
        assert_eq!(&Value::Bool(true) + &Value::Int(1), Value::Null);
    }

    #[test]
    fn numeric_add_promotes_an_overflowing_int_sum_to_dec() {
        let max = Value::Int(i64::MAX);
        assert_eq!(&max + &Value::Int(0), max);
        assert_eq!(&max + &Value::Int(1), Value::Dec(i64::MAX as f64 + 1.0));
        assert_eq!(
            &Value::Int(i64::MIN) + &Value::Int(-1),
            Value::Dec(i64::MIN as f64 - 1.0)
        );
    }

    #[test]
    fn hash_values_agrees_with_componentwise_equality() {
        let a = [Value::Int(5), Value::str("k")];
        let b = [Value::Dec(5.0), Value::str("k")];
        // Int(5) == Dec(5.0), so the composite hashes must agree too.
        assert_eq!(hash_values(a.iter()), hash_values(b.iter()));
        let c = [Value::Int(6), Value::str("k")];
        assert_ne!(hash_values(a.iter()), hash_values(c.iter()));
    }
}
