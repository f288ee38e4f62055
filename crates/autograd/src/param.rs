//! Trainable parameters and the parameter store.

use hap_tensor::{Scalar, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// A single trainable parameter: a value tensor plus an accumulated
/// gradient of the same shape.
///
/// `Param` is a cheap handle (`Rc` internally); clones refer to the same
/// underlying storage. A [`crate::Tape`] binds a parameter into a forward
/// pass with [`crate::Tape::param`], and `backward` accumulates into
/// [`Param::grad`]. Optimizers read the gradient, update the value, and call
/// [`Param::zero_grad`].
#[derive(Clone)]
pub struct Param<T: Scalar = f64> {
    inner: Rc<ParamInner<T>>,
}

pub(crate) struct ParamInner<T: Scalar> {
    name: String,
    value: RefCell<Tensor<T>>,
    grad: RefCell<Tensor<T>>,
}

impl<T: Scalar> Param<T> {
    /// Creates a parameter with the given diagnostic name and initial value.
    pub fn new(name: impl Into<String>, value: Tensor<T>) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self {
            inner: Rc::new(ParamInner {
                name: name.into(),
                value: RefCell::new(value),
                grad: RefCell::new(grad),
            }),
        }
    }

    /// Diagnostic name (used in optimizer logs and error messages).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Shape of the parameter value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.value.borrow().shape()
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.inner.value.borrow().len()
    }

    /// Whether the parameter is empty (zero elements).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone of the current value.
    pub fn value(&self) -> Tensor<T> {
        self.inner.value.borrow().clone()
    }

    /// Replaces the value (used by optimizers and tests).
    ///
    /// # Panics
    /// Panics when the new value's shape differs from the current one.
    pub fn set_value(&self, value: Tensor<T>) {
        assert_eq!(
            self.shape(),
            value.shape(),
            "set_value: shape mismatch for param {:?}",
            self.name()
        );
        *self.inner.value.borrow_mut() = value;
    }

    /// Clone of the accumulated gradient.
    pub fn grad(&self) -> Tensor<T> {
        self.inner.grad.borrow().clone()
    }

    /// Replaces the accumulated gradient: for tests that need gradient
    /// bits no accumulation produces, such as `−0.0`.
    pub fn set_grad(&self, grad: Tensor<T>) {
        assert_eq!(self.shape(), grad.shape(), "set_grad: shape mismatch");
        *self.inner.grad.borrow_mut() = grad;
    }

    /// Adds `delta` into the accumulated gradient, in place: the bits of
    /// `&*g + delta`.
    pub(crate) fn accumulate_grad(&self, delta: &Tensor<T>) {
        self.inner.grad.borrow_mut().add_in_place(delta);
    }

    /// Resets the accumulated gradient to `+0.0`, in place.
    pub fn zero_grad(&self) {
        self.inner.grad.borrow_mut().as_mut_slice().fill(T::ZERO);
    }

    /// Runs `f(value, grad)`, which updates the value in place from the
    /// accumulated gradient: an optimizer step clones neither.
    pub fn update_with(&self, f: impl FnOnce(&mut Tensor<T>, &Tensor<T>)) {
        let g = self.inner.grad.borrow();
        f(&mut self.inner.value.borrow_mut(), &g);
    }

    /// Whether two handles refer to the same underlying parameter.
    pub fn same_storage(&self, other: &Param<T>) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// A stable identity key for this parameter's storage — used by
    /// optimizers to index per-parameter state (e.g. Adam moments).
    pub fn key(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }
}

impl<T: Scalar> std::fmt::Debug for Param<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Param({:?}, shape {:?})", self.name(), self.shape())
    }
}

/// An ordered collection of parameters — typically one per model.
///
/// Layers register their parameters here at construction; the optimizer
/// iterates the store in registration order. The store guarantees each
/// underlying parameter appears once.
pub struct ParamStore<T: Scalar = f64> {
    params: Vec<Param<T>>,
}

impl<T: Scalar> Default for ParamStore<T> {
    fn default() -> Self {
        Self { params: Vec::new() }
    }
}

impl<T: Scalar> ParamStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns the handle back for convenience.
    ///
    /// Re-registering the same underlying parameter is a no-op, so model
    /// composition (e.g. the HAP ablations sharing encoders) stays safe.
    pub fn register(&mut self, param: Param<T>) -> Param<T> {
        if !self.params.iter().any(|p| p.same_storage(&param)) {
            self.params.push(param.clone());
        }
        param
    }

    /// Convenience: create, register and return a fresh parameter.
    pub fn new_param(&mut self, name: impl Into<String>, value: Tensor<T>) -> Param<T> {
        self.register(Param::new(name, value))
    }

    /// Iterates registered parameters in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Param<T>> {
        self.params.iter()
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Param::len).sum()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients — useful for clipping and debugging.
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .map(|p| {
                let g = p.inner.grad.borrow();
                g.as_slice().iter().map(|&x| x * x).sum::<T>().to_f64()
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Snapshot of all parameter values, in registration order — pair with
    /// [`ParamStore::restore`] for best-validation-checkpoint training.
    pub fn snapshot(&self) -> Vec<Tensor<T>> {
        self.params.iter().map(Param::value).collect()
    }

    /// Restores values captured by [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics when the snapshot length or any shape differs.
    pub fn restore(&self, snapshot: &[Tensor<T>]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot size mismatch");
        for (p, v) in self.params.iter().zip(snapshot) {
            p.set_value(v.clone());
        }
    }

    /// Saves all parameter values to a plain-text file (one header line
    /// `name rows cols` plus one line of space-separated values per
    /// parameter). No external serialisation dependency needed.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "hap-params v1 {}", self.params.len())?;
        for p in &self.params {
            let v = p.value();
            writeln!(
                f,
                "{} {} {}",
                p.name().replace(' ', "_"),
                v.rows(),
                v.cols()
            )?;
            let vals: Vec<String> = v.as_slice().iter().map(|x| format!("{x:?}")).collect();
            writeln!(f, "{}", vals.join(" "))?;
        }
        Ok(())
    }

    /// Loads values saved by [`ParamStore::save_to`] into the registered
    /// parameters, **in registration order** (names are checked as a
    /// consistency guard).
    ///
    /// # Errors
    /// Returns `InvalidData` on format/shape/name mismatches.
    pub fn load_from(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let content = std::fs::read_to_string(path)?;
        let mut lines = content.lines();
        let header = lines.next().ok_or_else(|| bad("empty file"))?;
        let expect_header = format!("hap-params v1 {}", self.params.len());
        if header != expect_header {
            return Err(bad(&format!(
                "header mismatch: got {header:?}, expected {expect_header:?}"
            )));
        }
        for p in &self.params {
            let meta = lines.next().ok_or_else(|| bad("truncated file"))?;
            let mut parts = meta.split_whitespace();
            let name = parts.next().ok_or_else(|| bad("missing name"))?;
            let rows: usize = parts
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad row count"))?;
            let cols: usize = parts
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad col count"))?;
            if name != p.name().replace(' ', "_") || (rows, cols) != p.shape() {
                return Err(bad(&format!(
                    "parameter mismatch at {:?}: file has {name} {rows}x{cols}",
                    p.name()
                )));
            }
            let vals_line = lines.next().ok_or_else(|| bad("missing values"))?;
            let vals: Result<Vec<f64>, _> = vals_line
                .split_whitespace()
                .map(str::parse::<f64>)
                .collect();
            let vals = vals.map_err(|_| bad("unparseable value"))?;
            if vals.len() != rows * cols {
                return Err(bad("value count mismatch"));
            }
            // Values are parsed in f64 and narrowed: `{x:?}` prints the
            // shortest decimal that re-reads to the stored value, so the
            // roundtrip is exact for both dtypes.
            p.set_value(Tensor::from_vec(
                rows,
                cols,
                vals.into_iter().map(T::from_f64).collect(),
            ));
        }
        Ok(())
    }

    /// Scales every gradient by `factor` (gradient clipping support), in
    /// place.
    ///
    /// Each entry becomes `0.0 + x·s` (`s` is `factor` converted once), the
    /// same bits as adding the scaled gradient into a zeroed one: a `−0.0`
    /// product is stored as `+0.0`.
    pub fn scale_grads(&self, factor: f64) {
        let s = T::from_f64(factor);
        for p in &self.params {
            for x in p.inner.grad.borrow_mut().as_mut_slice() {
                *x = T::ZERO + *x * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_roundtrip_and_grad_accumulation() {
        let p = Param::<f64>::new("w", Tensor::ones(2, 2));
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.grad().sum(), 0.0);
        p.accumulate_grad(&Tensor::ones(2, 2));
        p.accumulate_grad(&Tensor::ones(2, 2));
        assert_eq!(p.grad().sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
    }

    #[test]
    fn clones_share_storage() {
        let p = Param::<f64>::new("w", Tensor::zeros(1, 1));
        let q = p.clone();
        q.accumulate_grad(&Tensor::ones(1, 1));
        assert_eq!(p.grad().sum(), 1.0);
        assert!(p.same_storage(&q));
    }

    #[test]
    #[should_panic(expected = "set_value")]
    fn set_value_rejects_shape_change() {
        let p = Param::<f64>::new("w", Tensor::zeros(2, 2));
        p.set_value(Tensor::zeros(3, 3));
    }

    #[test]
    fn store_dedups_and_counts() {
        let mut store = ParamStore::<f64>::new();
        let p = store.new_param("a", Tensor::zeros(2, 3));
        store.register(p.clone());
        store.new_param("b", Tensor::zeros(1, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 10);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut store = ParamStore::new();
        let a = store.new_param(
            "layer.w",
            Tensor::from_rows(&[vec![1.5, -2.25], vec![0.0, 3.125]]),
        );
        let b = store.new_param("layer.b", Tensor::row_vector(&[0.1, -0.2, 1e-12]));
        let dir = std::env::temp_dir().join("hap_param_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.txt");
        store.save_to(&path).unwrap();

        let (va, vb) = (a.value(), b.value());
        a.set_value(Tensor::zeros(2, 2));
        b.set_value(Tensor::zeros(1, 3));
        store.load_from(&path).unwrap();
        assert_eq!(a.value(), va, "values must roundtrip bit-exactly");
        assert_eq!(b.value(), vb);
    }

    #[test]
    fn load_rejects_mismatched_store() {
        let mut store = ParamStore::<f64>::new();
        store.new_param("w", Tensor::zeros(2, 2));
        let dir = std::env::temp_dir().join("hap_param_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.txt");
        store.save_to(&path).unwrap();

        let mut other = ParamStore::<f64>::new();
        other.new_param("w", Tensor::zeros(3, 3)); // wrong shape
        assert!(other.load_from(&path).is_err());
        let mut third = ParamStore::<f64>::new();
        third.new_param("v", Tensor::zeros(2, 2)); // wrong name
        assert!(third.load_from(&path).is_err());
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut store = ParamStore::new();
        let p = store.new_param("a", Tensor::zeros(1, 4));
        // A −0.0 entry, and a negative subnormal whose product with 0.5
        // underflows to −0.0.
        *p.inner.grad.borrow_mut() = Tensor::row_vector(&[3.0, 4.0, -0.0, -5e-324]);
        assert!((store.grad_norm() - 5.0).abs() < 1e-12);
        // The formula `scale_grads` replaced: a scaled clone added into a
        // zeroed gradient.
        let expect = &Tensor::zeros(1, 4) + &p.grad().scale(0.5);
        store.scale_grads(0.5);
        assert!((store.grad_norm() - 2.5).abs() < 1e-12);
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.grad()), bits(&expect));
        assert_eq!(
            bits(&p.grad())[2..],
            [0.0f64.to_bits(); 2],
            "−0.0 products store +0.0"
        );
    }
}
