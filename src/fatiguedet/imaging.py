"""Grayscale/RGB image substrate: binary PNM codec, grayscale conversion,
bilinear resizing, integral images, and the denoise-then-enhance
preprocessing chain: a table-driven 5x5 bilateral filter and tile CLAHE
built in one pass. The resize and every step of the chain take an optional
region and return exactly the crop of their whole-image result to that
region, reading only the pixels that crop depends on.

The bilateral filter gathers each offset's weight w and product w * n
from one fused complex table into one complex accumulator; a complex add
adds its two parts on their own, so every byte equals that of the two
float sums the filter's formula runs offset by offset (see denoise).

All operations are pure; Image values are immutable after construction.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MalformedHeader,
    OutOfBounds,
    TruncatedRaster,
    UnsupportedMaxval,
)

GRAY = 1
RGB = 3


def iround(x: float) -> int:
    """Round half up to an int (0.5 always rounds toward +inf)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: left column x, top row y, width w, height h."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rect must have positive extent, got {self}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def inside(self, width: int, height: int) -> bool:
        """Whether the rect lies within a width x height area at the origin."""
        return (self.x >= 0 and self.y >= 0 and self.x2 <= width
                and self.y2 <= height)

    def iou(self, other: "Rect") -> float:
        """Intersection area over union area; 0.0 when disjoint."""
        ix = min(self.x2, other.x2) - max(self.x, other.x)
        iy = min(self.y2, other.y2) - max(self.y, other.y)
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        return inter / (self.area + other.area - inter)


@dataclass(frozen=True, eq=False)
class Image:
    """Immutable 8-bit image: pixels is (h, w) for gray, (h, w, 3) for RGB,
    and its shape is the image's height, width and channel count."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.dtype != np.uint8 or p.shape[2:] not in ((), (3,)) \
                or p.ndim < 2 or 0 in p.shape:
            raise ValueError(f"expected a uint8 (h, w) or (h, w, 3) array "
                             f"with no empty side, got {p.dtype} {p.shape}")
        p.setflags(write=False)

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}x{self.channels})"

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return GRAY if self.pixels.ndim == 2 else RGB

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Image":
        """Wrap a copy of an integer-valued array already in [0, 255]."""
        a = np.asarray(arr)
        if a.dtype != np.uint8 and a.size and (a.min() < 0 or a.max() > 255):
            raise ValueError("pixel values outside [0, 255]")
        return Image(a.astype(np.uint8))  # astype copies

    @staticmethod
    def from_float(arr: np.ndarray) -> "Image":
        """Round half up and clamp a float array into an 8-bit image."""
        a = np.floor(np.asarray(arr, dtype=np.float64) + 0.5)
        return Image(np.clip(a, 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# PNM codec (binary P5/P6, maxval 255)

# One header token with the separators before it. A separator is a
# whitespace byte or a comment, which runs from '#' up to the end of its
# line; the token (group 1) is every byte up to the next separator, and is
# empty only at the end of the data.
_PNM_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*)*"
                        rb"([^ \t\r\n\x0b\x0c#]*)")


def _parse_pnm_header(data: bytes) -> tuple[bytes, list[int], int]:
    """Return (magic, [w, h, maxval], raster_offset): the raster begins
    after exactly one whitespace byte following the maxval token."""
    if data[:2] not in (b"P5", b"P6"):
        raise MalformedHeader("not a binary PGM/PPM (expected P5 or P6 magic)")
    pos, values = 2, []
    for _ in range(3):
        match = _PNM_TOKEN.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise MalformedHeader("truncated header")
        if not tok.isdigit():  # ASCII digits only: int() also takes b"1_0"
            raise MalformedHeader(f"non-numeric header token {tok!r}")
        # int() refuses strings past 4,300 digits, leading zeros included
        digits = tok.lstrip(b"0")
        if len(digits) > 9:
            raise MalformedHeader("header number of more than 9 digits")
        values.append(int(digits or b"0"))
    if not data[pos:pos + 1].isspace():
        raise MalformedHeader("missing whitespace before raster")
    return data[:2], values, pos + 1


def load_pnm(data: bytes) -> Image:
    """Decode binary PGM (P5, gray) or PPM (P6, RGB) bytes."""
    magic, (w, h, maxval), offset = _parse_pnm_header(data)
    if w <= 0 or h <= 0:
        raise MalformedHeader(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval must be 255, got {maxval}")
    shape = (h, w) if magic == b"P5" else (h, w, 3)
    need = math.prod(shape)
    raster = data[offset:offset + need]
    if len(raster) < need:
        raise TruncatedRaster(
            f"raster has {len(raster)} bytes, expected {need}")
    return Image(np.frombuffer(raster, dtype=np.uint8).reshape(shape).copy())


def save_pnm(img: Image) -> bytes:
    """Encode to binary PGM/PPM; load_pnm(save_pnm(img)) == img exactly."""
    magic = b"P5" if img.channels == GRAY else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# Basic transforms

# Rec.601 luma weights.
_LUMA = np.array([0.299, 0.587, 0.114])


def to_grayscale(img: Image) -> Image:
    """Collapse RGB to gray with Rec.601 weights; gray input passes through."""
    if img.channels == GRAY:
        return img
    return Image.from_float(img.pixels.astype(np.float64) @ _LUMA)


def _inside(rect: Rect | None, width: int, height: int) -> Rect:
    """rect, or the whole width x height area when it is None; a rect that
    reaches outside that area raises OutOfBounds."""
    if rect is None:
        return Rect(0, 0, width, height)
    if not rect.inside(width, height):
        raise OutOfBounds(f"{rect} outside {width}x{height} image")
    return rect


@functools.lru_cache(maxsize=64)
def _resize_axis(dst_size: int, src_size: int, start: int, stop: int):
    """One axis of resize_bilinear for destination coordinates
    start..stop-1: the lower and upper source coordinate each samples and
    the upper one's weight. Cached, since most frames resize boxes of a
    few sizes, so the arrays are read-only."""
    c = (np.arange(start, stop) + 0.5) * (src_size / dst_size) - 0.5
    c = np.clip(c, 0.0, src_size - 1.0)
    lo = np.floor(c).astype(np.int64)
    hi = np.minimum(lo + 1, src_size - 1)
    axis = lo, hi, c - lo
    for a in axis:
        a.setflags(write=False)
    return axis


def resize_block(width: int, height: int, new_w: int, new_h: int,
                 region: Rect) -> Rect:
    """The source pixels that region's pixels read in resize_bilinear of a
    width x height image to new_w x new_h: from the lower source pixel of
    the region's first row (column) to the upper one of its last."""
    x0, x1, _ = _resize_axis(new_w, width, region.x, region.x2)
    y0, y1, _ = _resize_axis(new_h, height, region.y, region.y2)
    return Rect(int(x0[0]), int(y0[0]), int(x1[-1] - x0[0]) + 1,
                int(y1[-1] - y0[0]) + 1)


def resize_bilinear(img: Image, new_w: int, new_h: int,
                    region: Rect | None = None) -> Image:
    """Resize a grayscale image with pixel-center-aligned bilinear sampling.

    With a region of the new_w x new_h result, the result is
    crop(resize_bilinear(img, new_w, new_h), region), read from the pixels
    of resize_block alone. No region is the whole result.
    """
    if img.channels != GRAY:
        raise ValueError("resize_bilinear expects a grayscale image")
    if new_w <= 0 or new_h <= 0:
        raise ValueError("target dimensions must be positive")
    region = _inside(region, new_w, new_h)
    x0, x1, fx = _resize_axis(new_w, img.width, region.x, region.x2)
    y0, y1, fy = _resize_axis(new_h, img.height, region.y, region.y2)
    # blend each source row the region reads across x once, then blend
    # those rows: every pixel gets the same products and sums as blending
    # its four source pixels directly
    src = img.pixels[y0[0]:y1[-1] + 1]
    rows = src[:, x0] * (1 - fx) + src[:, x1] * fx
    fy = fy[:, None]
    return Image.from_float(rows[y0 - y0[0]] * (1 - fy)
                            + rows[y1 - y0[0]] * fy)


def crop(img: Image, rect: Rect) -> Image:
    """Copy the pixels of rect out of a grayscale image."""
    if img.channels != GRAY:
        raise ValueError("crop expects a grayscale image")
    _inside(rect, img.width, img.height)
    return Image.from_array(img.pixels[rect.y:rect.y2, rect.x:rect.x2])


def paste(img: Image, rect: Rect, width: int, height: int) -> Image:
    """A width x height grayscale image that holds img's pixels at rect,
    which has img's size, and zero elsewhere: crop(paste(img, rect, ...),
    rect) == img."""
    _inside(rect, width, height)
    pixels = np.zeros((height, width), dtype=np.uint8)
    pixels[rect.y:rect.y2, rect.x:rect.x2] = img.pixels
    return Image(pixels)


# ---------------------------------------------------------------------------
# Integral images

@dataclass(frozen=True, eq=False)
class IntegralImage:
    """Summed-area tables of a grayscale image.

    sums and squares are (h+1, w+1) grids, int32 up to 33,025 pixels and
    int64 above (summed_areas); entry (i, j) holds the sum of pixels (or
    squared pixels) in rows < i and columns < j.
    """

    width: int
    height: int
    sums: np.ndarray = field(repr=False)
    squares: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.sums.setflags(write=False)
        self.squares.setflags(write=False)


def summed_areas(pixels: np.ndarray) -> np.ndarray:
    """IntegralImage's sums and squares tables over the first two axes of
    uint8 pixels, as one (2, h+1, w+1, ...) array; further axes index a
    stack of images, each summed on its own. The tables are int32 when an
    image's squared pixels cannot overflow it (65,025 * h * w < 2**31, so
    up to 33,025 pixels), else int64; every entry is exact either way."""
    h, w = pixels.shape[:2]
    dtype = np.int32 if 65_025 * h * w < 1 << 31 else np.int64
    tables = np.zeros((2, h + 1, w + 1) + pixels.shape[2:], dtype=dtype)
    sums, squares = tables[:, 1:, 1:]
    sums[...] = pixels
    np.multiply(sums, sums, out=squares)
    np.cumsum(tables, axis=1, dtype=dtype, out=tables)
    np.cumsum(tables, axis=2, dtype=dtype, out=tables)
    return tables


def integral_image(img: Image) -> IntegralImage:
    if img.channels != GRAY:
        raise ValueError("integral_image expects a grayscale image")
    return IntegralImage(img.width, img.height, *summed_areas(img.pixels))


def rect_sum(ii: IntegralImage, rect: Rect) -> int:
    """Exact pixel sum over rect in O(1)."""
    _inside(rect, ii.width, ii.height)
    s = ii.sums
    return int(s[rect.y2, rect.x2] - s[rect.y, rect.x2]
               - s[rect.y2, rect.x] + s[rect.y, rect.x])


# ---------------------------------------------------------------------------
# Preprocessing chain

def _check_sigma(name: str, sigma: float) -> None:
    """Refuse a bilateral sigma unless 2 sigma^2 is a normal float. Below
    that 1 / (2 sigma^2) is infinite, so the center weight exp(-0 * inf)
    is NaN (or the division fails); above it 2 sigma^2 is infinite."""
    if not (sigma > 0
            and sys.float_info.min <= 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"{name} must be from about 1.1e-154 to 9.4e153, "
                         f"so that 2 sigma^2 is a normal float")


@functools.lru_cache(maxsize=1)
def _bilateral_tables(spatial_sigma: float,
                      range_sigma: float) -> dict[int, np.ndarray]:
    """denoise's fused weight tables for one sigma pair, one per squared
    offset distance r2: entry c * 256 + n is w * n + 1j * w, where the
    float product w = math.exp(-r2 * inv2ss) * range_weight[|c - n|]
    weighs a neighbour of level n around a center of level c. Five
    read-only tables of 65,536 complex128 (5 MiB); only the last sigma
    pair's are kept."""
    inv2ss = 1.0 / (2.0 * spatial_sigma * spatial_sigma)
    inv2rs = 1.0 / (2.0 * range_sigma * range_sigma)
    d = np.arange(256, dtype=np.float64)
    range_weight = np.exp(-(d * d) * inv2rs)
    level = np.arange(256, dtype=np.int16)
    distance = np.abs(level[:, None] - level)  # row c, column n
    tables = {}
    for r2 in (1, 2, 4, 5, 8):  # every offset's but the center's
        w = (math.exp(-r2 * inv2ss) * range_weight).take(distance)
        table = np.empty((256, 256), dtype=np.complex128)
        np.multiply(w, level, out=table.real)
        table.imag = w
        table.setflags(write=False)
        tables[r2] = table.ravel()
    return tables


def denoise(img: Image, spatial_sigma: float = 1.5,
            range_sigma: float = 30.0, region: Rect | None = None) -> Image:
    """Edge-preserving bilateral smoothing over a 5x5 neighborhood.

    Each output pixel is the weighted mean of its neighborhood, with weight
    exp(-d^2 / (2 ss^2)) * exp(-(I(p)-I(q))^2 / (2 rs^2)); borders are
    clamp-replicated. Output is rounded half up.

    A weight depends only on d^2 and the two levels, so each offset makes
    one gather from the _bilateral_tables entry of its d^2, keyed by
    center * 256 + neighbour, into one complex accumulator: the weighted
    sum in the real part, the weight sum in the imaginary part. A complex
    add adds each part on its own, so both sums get the bits of two float
    sums run over the offsets in the same order. The center's weight is
    exactly 1.0, so it adds c + 1j.

    With a region the result is crop(denoise(img, ...), region), read from
    the region grown by the filter's 2-pixel reach alone. No region is the
    whole image.
    """
    if img.channels != GRAY:
        raise ValueError("denoise expects a grayscale image")
    _check_sigma("spatial_sigma", spatial_sigma)
    _check_sigma("range_sigma", range_sigma)
    region = _inside(region, img.width, img.height)
    tables = _bilateral_tables(spatial_sigma, range_sigma)
    # the region grown by 2, with clamped indices as the border clamp
    rows = np.arange(region.y - 2, region.y2 + 2)
    cols = np.arange(region.x - 2, region.x2 + 2)
    levels = img.pixels.take(rows, axis=0, mode="clip").take(
        cols, axis=1, mode="clip").astype(np.uint16)
    h, w = region.h, region.w
    center = levels[2:2 + h, 2:2 + w]
    base = center << 8
    key = np.empty((h, w), dtype=np.uint16)
    gathered = np.empty((h, w), dtype=np.complex128)
    acc = np.zeros((h, w), dtype=np.complex128)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            if dy == dx == 0:
                acc += center + 1j
                continue
            np.add(base, levels[2 + dy:2 + dy + h, 2 + dx:2 + dx + w],
                   out=key)
            # every uint16 key is in range, so "wrap" moves none; unlike
            # "raise" it lets take fill out without a buffer
            tables[dy * dy + dx * dx].take(key, out=gathered, mode="wrap")
            acc += gathered
    return Image.from_float(acc.real / acc.imag)


@functools.lru_cache(maxsize=64)
def _tile_axis(size: int, tiles: int):
    """_axis_tiles over the whole axis, cached by its two ints; the arrays
    are read-only."""
    n = min(tiles, size)
    edges = np.arange(n + 1) * size // n
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    coords = np.arange(size, dtype=np.float64)
    i0 = np.clip(np.searchsorted(centers, coords, side="right") - 1, 0, n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    span = centers[i1] - centers[i0]
    frac = np.where(span > 0, (coords - centers[i0]) / np.where(
        span > 0, span, 1.0), 0.0)
    axis = edges, i0, i1, np.clip(frac, 0.0, 1.0)
    for a in axis:
        a.setflags(write=False)
    return axis


def _axis_tiles(size: int, tiles: int, start: int, stop: int):
    """One axis of CLAHE over `size` pixels cut into n = min(tiles, size)
    tiles: the n + 1 tile edges, then for each coordinate in start..stop-1
    the lower and upper tile it interpolates from (the tile centers on
    either side, clamped at the ends) and the upper tile's weight. The
    arrays are read-only."""
    edges, i0, i1, frac = _tile_axis(size, tiles)
    return edges, i0[start:stop], i1[start:stop], frac[start:stop]


def clahe_block(width: int, height: int, tiles: int, region: Rect) -> Rect:
    """The pixels of the tiles that region's pixels interpolate from in
    enhance_contrast of a width x height image: from the lower tile of the
    region's first row (column) to the upper tile of its last."""
    cols, j0, j1, _ = _axis_tiles(width, tiles, region.x, region.x2)
    rows, i0, i1, _ = _axis_tiles(height, tiles, region.y, region.y2)
    x0, y0 = int(cols[j0[0]]), int(rows[i0[0]])
    return Rect(x0, y0, int(cols[j1[-1] + 1]) - x0,
                int(rows[i1[-1] + 1]) - y0)


def enhance_contrast(img: Image, tiles: int = 8, clip_limit: float = 2.0,
                     region: Rect | None = None) -> Image:
    """Tile-based clipped histogram equalization (adaptive contrast).

    The image is split into tiles x tiles regions; each region's 256-bin
    histogram is clipped at clip_limit * (tile_pixels / 256) with the excess
    redistributed uniformly, turned into a CDF mapping, and the per-pixel
    result bilinearly interpolated between the four surrounding tile centers.
    A tile whose raw histogram occupies a single bin maps that bin to itself
    (identity), which makes constant regions fixed points.

    With a region the result is crop(enhance_contrast(img, ...), region),
    computed from the tiles of clahe_block alone: only their histograms are
    built, only region's pixels are interpolated, and no pixel outside the
    block is read. No region is the whole image.
    """
    if img.channels != GRAY:
        raise ValueError("enhance_contrast expects a grayscale image")
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    if not clip_limit >= 1.0:
        raise ValueError("clip_limit must be >= 1.0")
    region = _inside(region, img.width, img.height)
    cols, j0, j1, fx = _axis_tiles(img.width, tiles, region.x, region.x2)
    rows, i0, i1, fy = _axis_tiles(img.height, tiles, region.y, region.y2)
    # the block of tiles region reads: tile rows ta..tb-1, columns sa..sb-1
    ta, tb, sa, sb = i0[0], i1[-1] + 1, j0[0], j1[-1] + 1
    ty, tx = tb - ta, sb - sa
    block = img.pixels[rows[ta]:rows[tb], cols[sa]:cols[sb]]
    # every tile's histogram from one bincount of tile_id * 256 + value,
    # the tile id's part per row plus its part per column
    row_part = np.repeat(np.arange(ty) * (tx * 256), np.diff(rows[ta:tb + 1]))
    col_part = np.repeat(np.arange(tx) * 256, np.diff(cols[sa:sb + 1]))
    key = block + row_part[:, None] + col_part
    raw = np.bincount(key.ravel(), minlength=ty * tx * 256).reshape(-1, 256)
    hist = raw.astype(np.float64)
    n = hist.sum(axis=1, keepdims=True)  # pixels per tile
    clip = clip_limit * n / 256.0  # inf leaves hist as it is
    excess = np.maximum(hist - clip, 0.0).sum(axis=1, keepdims=True)
    # no pixel is above the block's top level, so the mappings stop there;
    # the excess is summed over all 256 bins above, to keep its bits
    bins = int(block.max()) + 1
    raw, hist = raw[:, :bins], hist[:, :bins]
    hist = np.minimum(hist, clip) + excess / 256.0
    cdf = np.cumsum(hist, axis=1)
    cdf_min = np.take_along_axis(cdf, np.argmax(hist > 0, axis=1)[:, None], 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 when one bin
        mapped = np.clip(255.0 * (cdf - cdf_min) / (n - cdf_min), 0.0, 255.0)
    single = (np.count_nonzero(raw, axis=1) == 1)[:, None]
    lut = np.where(single, np.arange(bins, dtype=np.float64), mapped)
    # lut[i, j, v] sits at (i * tx + j) * bins + v: a part per row plus a
    # part per column
    v = img.pixels[region.y:region.y2, region.x:region.x2]
    upper, lower = (v + ((i - ta) * (tx * bins))[:, None] for i in (i0, i1))
    left, right = ((j - sa) * bins for j in (j0, j1))
    top = lut.take(upper + left) * (1 - fx) + lut.take(upper + right) * fx
    bot = lut.take(lower + left) * (1 - fx) + lut.take(lower + right) * fx
    return Image.from_float(top * (1 - fy[:, None]) + bot * fy[:, None])


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the grayscale -> denoise -> enhance chain.

    low_light: "auto" engages enhancement when the grayscale mean falls
    below low_light_threshold; "on"/"off" force it.
    """

    low_light: str = "auto"
    low_light_threshold: float = 60.0
    denoise_spatial_sigma: float = 1.5
    denoise_range_sigma: float = 30.0
    clahe_tiles: int = 8
    clahe_clip_limit: float = 2.0

    def __post_init__(self):
        if self.low_light not in ("auto", "on", "off"):
            raise ValueError(f"bad low_light mode {self.low_light!r}")
        if math.isnan(self.low_light_threshold):
            raise ValueError("low_light_threshold must be a number")
        _check_sigma("denoise_spatial_sigma", self.denoise_spatial_sigma)
        _check_sigma("denoise_range_sigma", self.denoise_range_sigma)
        if self.clahe_tiles < 1:
            raise ValueError("clahe_tiles must be >= 1")
        if not self.clahe_clip_limit >= 1.0:  # inf: no clipping
            raise ValueError("clahe_clip_limit must be >= 1")


DEFAULT_PREPROCESS = PreprocessConfig()


def preprocess(img: Image, config: PreprocessConfig = DEFAULT_PREPROCESS,
               region: Rect | None = None) -> Image:
    """Grayscale, then denoise, then (conditionally) enhance contrast; with
    a region, exactly crop(preprocess(img, config), region).

    Denoising always precedes enhancement so noise is removed before any
    amplification. Enhancement runs when low_light is "on", or in "auto"
    mode when the mean intensity of the whole grayscale frame is below the
    threshold. Each step is given the region it must produce: denoise the
    region, or with enhancement the region's clahe_block, which
    enhance_contrast reads to produce the region.
    """
    gray = to_grayscale(img)
    region = _inside(region, gray.width, gray.height)
    enhance = config.low_light == "on" or (
        config.low_light == "auto"
        and float(gray.pixels.mean()) < config.low_light_threshold)
    sigmas = config.denoise_spatial_sigma, config.denoise_range_sigma
    if not enhance:
        return denoise(gray, *sigmas, region)
    block = clahe_block(gray.width, gray.height, config.clahe_tiles, region)
    # enhance_contrast reads the block where it lies in the frame
    return enhance_contrast(
        paste(denoise(gray, *sigmas, block), block, gray.width, gray.height),
        config.clahe_tiles, config.clahe_clip_limit, region)
