//! Named `(x, y)` series with CSV export.

/// A named series of `(x, y)` points — one curve of a figure.
///
/// # Example
///
/// ```
/// use spamward_analysis::Series;
/// let s = Series::new("cdf-300s", vec![(0.0, 0.0), (300.0, 0.5)]);
/// let csv = Series::to_csv(&[s]);
/// assert!(csv.starts_with("series,x,y\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label.
    pub name: String,
    /// The points, in plot order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.to_owned(), points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders several series as long-format CSV
    /// (`series,x,y` header then one line per point).
    pub fn to_csv(series: &[Series]) -> String {
        let mut out = String::from("series,x,y\n");
        for s in series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.name));
            }
        }
        out
    }

    /// Renders the series as a canonical JSON object:
    /// `{"name":...,"points":[[x,y],...]}`. Point coordinates use
    /// shortest-roundtrip float formatting (non-finite values become
    /// `null`), so bytes are deterministic across runs and platforms.
    pub fn to_json(&self) -> String {
        use crate::json::{json_array, json_f64, json_string};
        let points = json_array(
            self.points.iter().map(|&(x, y)| format!("[{},{}]", json_f64(x), json_f64(y))),
        );
        format!("{{\"name\":{},\"points\":{points}}}", json_string(&self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_long_format() {
        let a = Series::new("a", vec![(1.0, 0.5), (2.0, 1.0)]);
        let b = Series::new("b", vec![(3.0, 0.25)]);
        assert_eq!(Series::to_csv(&[a, b]), "series,x,y\na,1,0.5\na,2,1\nb,3,0.25\n");
    }

    #[test]
    fn json_is_canonical() {
        let s = Series::new("cdf-300s", vec![(0.0, 0.5), (300.0, 1.0)]);
        assert_eq!(s.to_json(), "{\"name\":\"cdf-300s\",\"points\":[[0,0.5],[300,1]]}");
        let nan = Series::new("n", vec![(f64::NAN, 1.0)]);
        assert_eq!(nan.to_json(), "{\"name\":\"n\",\"points\":[[null,1]]}");
    }

    #[test]
    fn empty_series_renders_header_only() {
        let csv = Series::to_csv(&[]);
        assert_eq!(csv, "series,x,y\n");
        let s = Series::new("x", vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
