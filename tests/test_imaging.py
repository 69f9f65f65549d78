import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fatiguedet import imaging
from fatiguedet.errors import (
    MalformedHeader,
    OutOfBounds,
    TruncatedRaster,
    UnsupportedMaxval,
)
from fatiguedet.imaging import (
    Image,
    Rect,
    clahe_block,
    crop,
    denoise,
    enhance_contrast,
    integral_image,
    load_pnm,
    paste,
    preprocess,
    rect_sum,
    resize_bilinear,
    resize_block,
    save_pnm,
    to_grayscale,
)
from fatiguedet.synth import SyntheticSpec, generate


def gray_image(arr) -> Image:
    return Image.from_array(np.asarray(arr, dtype=np.uint8))


def any_region(data, width, height):
    """A region drawn anywhere in a width x height area, border included."""
    x = data.draw(st.integers(0, width - 1))
    y = data.draw(st.integers(0, height - 1))
    return Rect(x, y, data.draw(st.integers(1, width - x)),
                data.draw(st.integers(1, height - y)))


# frames of 1 to 40 px a side
frame_pixels = st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
    lambda shape: arrays(np.uint8, shape))

small_gray = st.integers(1, 12).flatmap(
    lambda w: st.integers(1, 12).flatmap(
        lambda h: st.lists(
            st.integers(0, 255), min_size=w * h, max_size=w * h
        ).map(lambda px: gray_image(np.array(px).reshape(h, w)))
    )
)


class TestImage:
    @pytest.mark.parametrize("shape, channels", [((3, 5), 1),
                                                 ((3, 5, 3), 3)])
    def test_sizes_are_read_from_the_array(self, shape, channels):
        img = Image.from_array(np.zeros(shape, dtype=np.uint8))
        assert (img.width, img.height, img.channels) == (5, 3, channels)

    @pytest.mark.parametrize("shape, dtype", [
        ((3, 5), np.int16), ((3, 5), np.float64), ((5,), np.uint8),
        ((3, 5, 1), np.uint8), ((3, 5, 4), np.uint8), ((0, 5), np.uint8),
        ((3, 0, 3), np.uint8), ((2, 3, 5, 3), np.uint8)])
    def test_constructor_takes_only_8_bit_gray_or_rgb(self, shape, dtype):
        with pytest.raises(ValueError):
            Image(np.zeros(shape, dtype=dtype))

    def test_from_array_copies_and_freezes(self):
        src = np.arange(6, dtype=np.int64).reshape(2, 3)
        img = Image.from_array(src)
        src[0, 0] = 99
        assert img.pixels.dtype == np.uint8 and img.pixels[0, 0] == 0
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    @pytest.mark.parametrize("value", [-1, 256])
    def test_from_array_refuses_values_outside_a_byte(self, value):
        with pytest.raises(ValueError, match="outside"):
            Image.from_array(np.array([[0, value]]))


# PNM header separators: whitespace bytes, and comments that run to the end
# of their line
PNM_SEPARATORS = st.lists(st.sampled_from(
    [b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"# c\n", b"#\n",
     b"##5 6\r\n", b"#\xff\x00\n"]), min_size=1, max_size=4).map(b"".join)


class TestPnmCodec:
    def test_pgm_basic(self):
        img = load_pnm(b"P5 2 1 255 " + bytes([0, 255]))
        assert (img.width, img.height, img.channels) == (2, 1, 1)
        assert img.pixels.tolist() == [[0, 255]]

    def test_ppm_basic(self):
        img = load_pnm(b"P6 1 1 255 " + bytes([10, 20, 30]))
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.pixels.tolist() == [[[10, 20, 30]]]

    def test_truncated_raster(self):
        with pytest.raises(TruncatedRaster):
            load_pnm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            load_pnm(b"P3 1 1 255 0")

    def test_bad_maxval(self):
        with pytest.raises(UnsupportedMaxval):
            load_pnm(b"P5 1 1 65535 " + bytes([0, 0]))

    def test_comments_in_header(self):
        data = b"P5 # comment\n2 1 # another\n255\n" + bytes([9, 8])
        img = load_pnm(data)
        assert img.pixels.tolist() == [[9, 8]]

    def test_bad_dimensions(self):
        with pytest.raises(MalformedHeader):
            load_pnm(b"P5 0 1 255 ")

    @pytest.mark.parametrize("header", [
        b"P5 1_0 1 255 ", b"P5 +10 1 255 ", b"P5 10 1 2_55 ",
        "P5 \u0661\u0660 1 255 ".encode()],
        ids=["underscore", "plus", "maxval-underscore", "arabic-indic"])
    def test_header_number_outside_ascii_digits(self, header):
        with pytest.raises(MalformedHeader, match="non-numeric"):
            load_pnm(header + bytes(10))

    @pytest.mark.parametrize("token", [
        b"1" * 5000, b"1234567890", b"0" * 5000 + b"1234567890"],
        ids=["5000-digits", "10-digits", "zeros-then-10-digits"])
    @pytest.mark.parametrize("field", range(3))
    def test_header_number_past_nine_digits(self, token, field):
        # int() refuses strings past 4,300 digits with a bare ValueError
        tokens = [b"2", b"2", b"255"]
        tokens[field] = token
        with pytest.raises(MalformedHeader, match="more than 9 digits"):
            load_pnm(b"P5 " + b" ".join(tokens) + b"\n" + bytes(4))

    def test_leading_zeros_do_not_count_as_digits(self):
        # 0002 reads as 2, however many zeros lead
        for zeros in (3, 5000):
            img = load_pnm(b"P5 " + b"0" * zeros + b"2 " + b"0" * zeros
                           + b"1 " + b"0" * zeros + b"255\n" + bytes([7, 9]))
            assert img.pixels.tolist() == [[7, 9]]
        # nine significant digits are a number, here too large a raster
        with pytest.raises(TruncatedRaster):
            load_pnm(b"P5 999999999 1 255\n" + bytes(4))
        with pytest.raises(MalformedHeader, match="bad dimensions 0x1"):
            load_pnm(b"P5 " + b"0" * 5000 + b" 1 255\n")

    @given(st.sampled_from([b"P5", b"P6"]), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2),
           st.lists(PNM_SEPARATORS, min_size=3, max_size=3),
           st.sampled_from(b" \t\r\n\x0b\x0c"),
           st.sampled_from(["whole", "truncated", "no-raster-byte",
                            "non-numeric"]), st.binary(min_size=108,
                                                       max_size=108))
    def test_header_tokens_and_separators(self, magic, w, h, zeros, seps,
                                          last, cut, raster):
        # a token is ASCII digits (leading zeros allowed); exactly one
        # whitespace byte separates maxval from the raster, which may
        # itself start with whitespace or '#'
        tokens = [b"0" * zeros + b"%d" % v for v in (w, h, 255)]
        if cut == "non-numeric":
            tokens[zeros % 3] += "\u0661".encode()
        header = b"".join(s + t for s, t in zip(seps, tokens))
        if cut == "truncated":
            header = header[:header.rindex(tokens[2])]
        data = magic + header + (bytes([last]) + raster if cut in (
            "whole", "non-numeric") else b"")
        if cut != "whole":
            message = {"truncated": "truncated header",
                       "no-raster-byte": "missing whitespace before raster",
                       "non-numeric": "non-numeric header token"}[cut]
            with pytest.raises(MalformedHeader, match=message):
                load_pnm(data)
            return
        img = load_pnm(data)
        shape = (h, w) if magic == b"P5" else (h, w, 3)
        assert img.pixels.shape == shape
        assert img.pixels.tobytes() == raster[:math.prod(shape)]

    def test_save_single_pixel_layout(self):
        # forced by the format: header then raw raster byte
        img = gray_image([[0]])
        assert save_pnm(img) == b"P5\n1 1\n255\n\x00"

    def test_roundtrip_random_64(self, rng):
        arr = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        img = Image.from_array(arr)
        assert load_pnm(save_pnm(img)) == img

    def test_roundtrip_rgb(self, rng):
        arr = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        img = Image.from_array(arr)
        assert load_pnm(save_pnm(img)) == img

    @given(small_gray)
    def test_roundtrip_property(self, img):
        assert load_pnm(save_pnm(img)) == img


class TestGrayscale:
    @pytest.mark.parametrize(
        "rgb,expected",
        [((255, 255, 255), 255), ((0, 0, 0), 0), ((255, 0, 0), 76)],
    )
    def test_known_values(self, rgb, expected):
        # 0.299*255 = 76.245 -> 76
        img = Image.from_array(np.array([[rgb]], dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == expected

    def test_gray_passthrough(self):
        img = gray_image([[1, 2], [3, 4]])
        assert to_grayscale(img) is img

    def test_equal_channels_match_gray(self, rng):
        g = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        rgb = Image.from_array(np.repeat(g[:, :, None], 3, axis=2))
        assert np.array_equal(to_grayscale(rgb).pixels, g)


def four_gather_resize(pixels, new_w, new_h, region):
    """resize_bilinear of region from its four corner gathers."""
    x0, x1, fx = imaging._resize_axis(new_w, pixels.shape[1], region.x,
                                      region.x2)
    y0, y1, fy = imaging._resize_axis(new_h, pixels.shape[0], region.y,
                                      region.y2)
    y0, y1, fy = y0[:, None], y1[:, None], fy[:, None]
    top = pixels[y0, x0] * (1 - fx) + pixels[y0, x1] * fx
    bot = pixels[y1, x0] * (1 - fx) + pixels[y1, x1] * fx
    return Image.from_float(top * (1 - fy) + bot * fy)


class TestResize:
    @given(small_gray, st.data())
    def test_identity(self, img, data):
        # at equal sizes every pixel samples itself at weight 1, and its
        # neighbour at weight 0
        assert resize_bilinear(img, img.width, img.height) == img
        region = any_region(data, img.width, img.height)
        assert resize_bilinear(img, img.width, img.height, region) == \
            crop(img, region)

    def test_downscale_2x2_to_1x1(self):
        # source coord for the single output pixel is (0.5, 0.5):
        # (0 + 0 + 100 + 100) / 4 = 50
        img = gray_image([[0, 0], [100, 100]])
        assert resize_bilinear(img, 1, 1).pixels[0, 0] == 50

    def test_constant_fixed_point(self):
        img = gray_image([[7]])
        out = resize_bilinear(img, 3, 3)
        assert np.all(out.pixels == 7)

    def test_against_naive_oracle(self, rng):
        src = rng.integers(0, 256, size=(6, 9))
        img = gray_image(src)
        new_w, new_h = 13, 4
        out = resize_bilinear(img, new_w, new_h)
        for y in range(new_h):
            for x in range(new_w):
                sx = min(max((x + 0.5) * 9 / new_w - 0.5, 0.0), 8.0)
                sy = min(max((y + 0.5) * 6 / new_h - 0.5, 0.0), 5.0)
                x0, y0 = int(math.floor(sx)), int(math.floor(sy))
                x1, y1 = min(x0 + 1, 8), min(y0 + 1, 5)
                fx, fy = sx - x0, sy - y0
                v = (src[y0, x0] * (1 - fx) * (1 - fy)
                     + src[y0, x1] * fx * (1 - fy)
                     + src[y1, x0] * (1 - fx) * fy
                     + src[y1, x1] * fx * fy)
                assert out.pixels[y, x] == int(math.floor(v + 0.5))

    @given(small_gray, st.integers(1, 30), st.integers(1, 30), st.data())
    def test_region_reads_only_its_block(self, img, new_w, new_h, data):
        region = any_region(data, new_w, new_h)
        expect = crop(resize_bilinear(img, new_w, new_h), region)
        assert resize_bilinear(img, new_w, new_h, region) == expect
        block = resize_block(img.width, img.height, new_w, new_h, region)
        assert block.inside(img.width, img.height)
        # every pixel outside the block changed; the region's result not
        scrambled = 255 - img.pixels
        scrambled[block.y:block.y2, block.x:block.x2] = \
            img.pixels[block.y:block.y2, block.x:block.x2]
        assert resize_bilinear(gray_image(scrambled), new_w, new_h,
                               region) == expect

    @pytest.mark.parametrize("box_side, region, block", [
        (88, Rect(10, 20, 80, 30), Rect(8, 17, 72, 28)),
        (88, Rect(30, 60, 40, 40), Rect(26, 52, 36, 36)),
        (100, Rect(10, 20, 80, 30), Rect(10, 20, 81, 31)),
        (200, Rect(0, 0, 1, 1), Rect(0, 0, 2, 2))])
    def test_resize_block_at_working_size(self, box_side, region, block):
        # an 88 px box resized to 100 px: destination x samples source
        # (x + 0.5) * 0.88 - 0.5, so column 10 reads 8 and 9, and 89 reads
        # 78 and 79; at equal sizes the upper neighbour is read at weight 0
        assert resize_block(box_side, box_side, 100, 100, region) == block

    def test_axes_are_cached_read_only(self):
        axes = imaging._resize_axis(100, 88, 10, 90)
        assert imaging._resize_axis(100, 88, 10, 90) is axes
        for a in axes:
            assert not a.flags.writeable
        lo, hi, frac = axes
        assert lo[0] == 8 and hi[-1] == 79 and frac[0] == pytest.approx(0.74)

    def test_region_outside_result(self):
        with pytest.raises(OutOfBounds):
            resize_bilinear(gray_image(np.zeros((4, 4))), 6, 6,
                            Rect(3, 0, 4, 2))

    @given(arrays(np.uint8, st.tuples(st.integers(1, 100),
                                      st.integers(1, 100))),
           st.integers(1, 100), st.integers(1, 100), st.data())
    def test_equals_four_gather_blend(self, pixels, new_w, new_h, data):
        # blending rows across x first gives every pixel the arithmetic of
        # the four-gather blend, bit for bit
        region = any_region(data, new_w, new_h)
        assert resize_bilinear(Image(pixels), new_w, new_h, region) == \
            four_gather_resize(pixels, new_w, new_h, region)

    @pytest.mark.parametrize("side, new_side", [(100, 24), (88, 100)])
    @pytest.mark.parametrize("region", [
        None, Rect(0, 0, 1, 1), Rect(3, 5, 17, 11), Rect(23, 0, 1, 24)])
    def test_equals_four_gather_blend_at_working_sizes(self, rng, side,
                                                       new_side, region):
        # a window downscaled for cascade training; a face box upscaled
        # to face_side
        pixels = rng.integers(0, 256, size=(side, side)).astype(np.uint8)
        region = region or Rect(0, 0, new_side, new_side)
        assert resize_bilinear(Image(pixels), new_side, new_side,
                               region) == \
            four_gather_resize(pixels, new_side, new_side, region)


def brute_rect_sum(pixels, rect):
    total = 0
    for y in range(rect.y, rect.y + rect.h):
        for x in range(rect.x, rect.x + rect.w):
            total += int(pixels[y, x])
    return total


class TestIntegralImage:
    def test_all_ones_total(self):
        ii = integral_image(gray_image(np.ones((3, 3))))
        assert ii.sums[3, 3] == 9

    def test_zero_borders(self, rng):
        ii = integral_image(gray_image(rng.integers(0, 256, size=(4, 6))))
        assert np.all(ii.sums[0, :] == 0) and np.all(ii.sums[:, 0] == 0)
        assert np.all(ii.squares[0, :] == 0) and np.all(ii.squares[:, 0] == 0)

    def test_monotone(self, rng):
        ii = integral_image(gray_image(rng.integers(0, 256, size=(8, 8))))
        assert np.all(np.diff(ii.sums, axis=0) >= 0)
        assert np.all(np.diff(ii.sums, axis=1) >= 0)

    def test_brute_force_oracle(self, rng):
        pixels = rng.integers(0, 256, size=(64, 64))
        ii = integral_image(gray_image(pixels))
        expect = np.zeros((65, 65), dtype=np.int64)
        expect_sq = np.zeros_like(expect)
        for i in range(1, 65):
            for j in range(1, 65):
                expect[i, j] = int(pixels[:i, :j].sum())
                expect_sq[i, j] = int((pixels[:i, :j].astype(np.int64) ** 2).sum())
        assert np.array_equal(ii.sums, expect)
        assert np.array_equal(ii.squares, expect_sq)

    @pytest.mark.parametrize("height, width, dtype", [
        (25, 1321, np.int32), (2, 16_513, np.int64), (1321, 25, np.int32),
        (16_513, 2, np.int64)])
    def test_table_type_at_the_int32_edge(self, height, width, dtype):
        # a white frame's squares reach 65,025 * n: below 2**31 at
        # n = 33,025, above it at 33,026
        n = height * width
        assert (65_025 * n < 2 ** 31) is (dtype is np.int32)
        ii = integral_image(gray_image(np.full((height, width), 255)))
        assert ii.sums.dtype == ii.squares.dtype == dtype
        assert int(ii.sums[-1, -1]) == 255 * n
        assert int(ii.squares[-1, -1]) == 65_025 * n
        assert int(ii.squares[-1, -2]) == 65_025 * height * (width - 1)

    def test_stack_tables_are_int32_per_window(self, rng):
        stack = rng.integers(0, 256, size=(24, 24, 300)).astype(np.uint8)
        tables = imaging.summed_areas(stack)
        assert tables.dtype == np.int32
        for i in (0, 157, 299):
            ii = integral_image(gray_image(stack[:, :, i]))
            assert np.array_equal(tables[0, :, :, i], ii.sums)
            assert np.array_equal(tables[1, :, :, i], ii.squares)


class TestRectSum:
    def test_full_rect_ones(self):
        ii = integral_image(gray_image(np.ones((3, 3))))
        assert rect_sum(ii, Rect(0, 0, 3, 3)) == 9

    def test_single_pixel(self, rng):
        pixels = rng.integers(0, 256, size=(5, 5))
        ii = integral_image(gray_image(pixels))
        assert rect_sum(ii, Rect(2, 3, 1, 1)) == pixels[3, 2]

    def test_random_rects_vs_brute_force(self, rng):
        for _ in range(10):
            pixels = rng.integers(0, 256, size=(16, 16))
            ii = integral_image(gray_image(pixels))
            for _ in range(20):
                w = int(rng.integers(1, 17))
                h = int(rng.integers(1, 17))
                x = int(rng.integers(0, 17 - w))
                y = int(rng.integers(0, 17 - h))
                r = Rect(x, y, w, h)
                assert rect_sum(ii, r) == brute_rect_sum(pixels, r)

    def test_out_of_bounds(self):
        ii = integral_image(gray_image(np.zeros((4, 4))))
        with pytest.raises(OutOfBounds):
            rect_sum(ii, Rect(2, 2, 3, 3))


class TestPaste:
    @given(small_gray, st.data())
    def test_crop_of_paste_is_the_image(self, img, data):
        x, y = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        width = x + img.width + data.draw(st.integers(0, 5))
        height = y + img.height + data.draw(st.integers(0, 5))
        rect = Rect(x, y, img.width, img.height)
        out = paste(img, rect, width, height)
        assert (out.width, out.height) == (width, height)
        assert crop(out, rect) == img
        assert np.count_nonzero(out.pixels) == np.count_nonzero(img.pixels)

    def test_rect_outside_canvas(self):
        with pytest.raises(OutOfBounds):
            paste(gray_image(np.ones((4, 4))), Rect(2, 0, 4, 4), 5, 5)


class TestCrop:
    def test_exact_copy(self, rng):
        pixels = rng.integers(0, 256, size=(10, 10))
        out = crop(gray_image(pixels), Rect(2, 3, 4, 5))
        assert np.array_equal(out.pixels, pixels[3:8, 2:6])

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            crop(gray_image(np.zeros((4, 4))), Rect(1, 1, 4, 4))


def naive_denoise(pixels, ss, rs):
    """The bilateral filter pixel by pixel, with the clamp at the border."""
    h, w = pixels.shape
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            num = den = 0.0
            for dy in range(-2, 3):
                for dx in range(-2, 3):
                    qy = min(max(y + dy, 0), h - 1)
                    qx = min(max(x + dx, 0), w - 1)
                    q = float(pixels[qy, qx])
                    wgt = math.exp(
                        -(dy * dy + dx * dx) / (2 * ss * ss)
                    ) * math.exp(
                        -((float(pixels[y, x]) - q) ** 2) / (2 * rs * rs))
                    num += wgt * q
                    den += wgt
            out[y, x] = int(math.floor(num / den + 0.5))
    return gray_image(out)


def six_pass_denoise(pixels, ss, rs, region):
    """denoise of region with separate weighted and weight sums: per
    offset a 256-entry weight table gathered by |c - n|, then sub, abs,
    take, mul and two adds over the padded frame."""
    levels = np.pad(pixels, 2, mode="edge")[
        region.y:region.y2 + 4, region.x:region.x2 + 4].astype(np.int16)
    h, w = region.h, region.w
    center = levels[2:2 + h, 2:2 + w]
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    inv2ss = 1.0 / (2.0 * ss * ss)
    inv2rs = 1.0 / (2.0 * rs * rs)
    d = np.arange(256, dtype=np.float64)
    range_weight = np.exp(-(d * d) * inv2rs)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            table = math.exp(-(dy * dy + dx * dx) * inv2ss) * range_weight
            q = np.s_[2 + dy:2 + dy + h, 2 + dx:2 + dx + w]
            wgt = table.take(np.abs(center - levels[q]))
            num += wgt * levels[q]
            den += wgt
    return Image.from_float(num / den)


class TestDenoise:
    @given(frame_pixels, st.sampled_from([
        (1.5, 30.0), (0.7, 5.0), (3.0, 200.0), (1e-150, 1e-150),
        (1e150, 1e150)]), st.data())
    def test_equals_six_pass_filter(self, pixels, sigmas, data):
        # the fused tables keep both sums' bits, at every sigma pair that
        # passes the check, the extremes included
        region = any_region(data, pixels.shape[1], pixels.shape[0])
        assert denoise(Image(pixels), *sigmas, region) == \
            six_pass_denoise(pixels, *sigmas, region)

    def test_one_sigma_pair_of_tables_is_resident(self):
        img = gray_image(np.arange(36).reshape(6, 6))
        denoise(img, 1.5, 30.0)
        denoise(img, 0.7, 5.0)
        assert imaging._bilateral_tables.cache_info().currsize == 1
        tables = imaging._bilateral_tables(0.7, 5.0)
        assert len(tables) == 5
        for table in tables.values():
            assert table.shape == (65_536,)
            assert table.dtype == np.complex128
            assert not table.flags.writeable

    @given(st.integers(0, 255), st.floats(0.5, 5.0), st.floats(1.0, 80.0))
    def test_constant_fixed_point(self, value, ss, rs):
        img = gray_image(np.full((6, 6), value))
        assert denoise(img, ss, rs) == img

    def test_impulse(self):
        field = np.zeros((7, 7), dtype=np.uint8)
        field[3, 3] = 255
        out = denoise(gray_image(field), 2.0, 30.0)
        # Surrounding zeros see the impulse at range weight
        # exp(-255^2/(2*30^2)) ~ 2e-16, so they stay 0.
        others = out.pixels.copy().astype(int)
        others[3, 3] = 0
        assert np.all(others == 0)
        # The real-valued weighted mean at the impulse strictly decreases;
        # at range_sigma=30 the drop is ~6e-13 so the rounded value is
        # unchanged. Evaluate the weight formula directly.
        num = den = 0.0
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                q = 255.0 if (dy, dx) == (0, 0) else 0.0
                w = math.exp(-(dy * dy + dx * dx) / (2 * 2.0**2)) * math.exp(
                    -((255.0 - q) ** 2) / (2 * 30.0**2))
                num += w * q
                den += w
        oracle = num / den
        assert oracle < 255.0
        assert out.pixels[3, 3] == int(math.floor(oracle + 0.5))

    @pytest.mark.parametrize("ss, rs", [(1e-150, 30.0), (1.5, 1e-150)])
    def test_tiny_sigma_returns_its_input(self, rng, ss, rs):
        # only the center, or only equal neighbors, keep a nonzero weight
        img = gray_image(rng.integers(0, 256, size=(9, 8)))
        assert denoise(img, ss, rs) == img

    @pytest.mark.parametrize("ss, rs", [
        (1e-160, 30.0), (1e-200, 30.0), (1.5, 1e-160), (1.5, 1e-200),
        (0.0, 30.0), (-1.5, 30.0), (1.5, math.nan), (1e200, 30.0),
        (1.5, math.inf)])
    def test_sigma_outside_the_normal_range_is_refused(self, ss, rs):
        # below about 1e-154, 1 / (2 sigma^2) is infinite and the center
        # weight exp(-0 * inf) NaN
        with pytest.raises(ValueError, match="2 sigma\\^2 is a normal"):
            denoise(gray_image(np.zeros((4, 4))), ss, rs)

    def test_impulse_wide_range_sigma_decreases(self):
        # with range_sigma=200 neighbors carry real weight and the rounded
        # center drops well below 255
        field = np.zeros((7, 7), dtype=np.uint8)
        field[3, 3] = 255
        out = denoise(gray_image(field), 2.0, 200.0)
        assert out.pixels[3, 3] < 255

    def test_against_naive_oracle(self, rng):
        pixels = rng.integers(0, 256, size=(8, 9))
        assert denoise(gray_image(pixels), 1.5, 25.0) == \
            naive_denoise(pixels, 1.5, 25.0)

    @pytest.mark.parametrize("ss, rs", [(0.6, 4.0), (3.5, 140.0)])
    def test_against_naive_oracle_at_other_sigmas(self, rng, ss, rs):
        pixels = rng.integers(0, 256, size=(11, 7))
        assert denoise(gray_image(pixels), ss, rs) == \
            naive_denoise(pixels, ss, rs)

    @given(small_gray, st.floats(0.5, 5.0), st.floats(1.0, 150.0),
           st.data())
    def test_region_reads_only_its_reach(self, img, ss, rs, data):
        region = any_region(data, img.width, img.height)
        expect = crop(denoise(img, ss, rs), region)
        assert denoise(img, ss, rs, region) == expect
        # every pixel more than 2 away from the region changed; the result
        # not
        reach = np.s_[max(region.y - 2, 0):region.y2 + 2,
                      max(region.x - 2, 0):region.x2 + 2]
        scrambled = 255 - img.pixels
        scrambled[reach] = img.pixels[reach]
        assert denoise(gray_image(scrambled), ss, rs, region) == expect

    @given(small_gray)
    def test_shape_and_range(self, img):
        out = denoise(img)
        assert (out.width, out.height) == (img.width, img.height)


def tile_mapping(tile, clip_limit):
    """One tile's clipped-equalization mapping (256 floats), tile by tile."""
    hist = np.bincount(tile.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) == 1:
        return np.arange(256, dtype=np.float64)
    n = tile.size
    if math.isfinite(clip_limit):
        clip = clip_limit * n / 256.0
        excess = np.maximum(hist - clip, 0.0).sum()
        hist = np.minimum(hist, clip) + excess / 256.0
    cdf = np.cumsum(hist)
    cdf_min = cdf[int(np.argmax(hist > 0))]
    return np.clip(255.0 * (cdf - cdf_min) / (n - cdf_min), 0.0, 255.0)


def enhance_oracle(img, tiles, clip_limit):
    """enhance_contrast with one tile_mapping call per tile and the four
    corner tables read by fancy indexing."""
    ty, tx = min(tiles, img.height), min(tiles, img.width)
    rows = [(t * img.height // ty, (t + 1) * img.height // ty)
            for t in range(ty)]
    cols = [(t * img.width // tx, (t + 1) * img.width // tx)
            for t in range(tx)]
    lut = np.empty((ty, tx, 256))
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            lut[i, j] = tile_mapping(img.pixels[r0:r1, c0:c1], clip_limit)

    def axis_interp(size, bounds):
        coords = np.arange(size, dtype=np.float64)
        centers = np.array([(a + b - 1) / 2.0 for a, b in bounds])
        i0 = np.clip(np.searchsorted(centers, coords, side="right") - 1,
                     0, len(bounds) - 1)
        i1 = np.clip(i0 + 1, 0, len(bounds) - 1)
        span = centers[i1] - centers[i0]
        frac = np.where(span > 0, (coords - centers[i0]) / np.where(
            span > 0, span, 1.0), 0.0)
        return i0, i1, np.clip(frac, 0.0, 1.0)

    j0, j1, fx = axis_interp(img.width, cols)
    i0, i1, fy = axis_interp(img.height, rows)
    v, i0, i1, fy = img.pixels, i0[:, None], i1[:, None], fy[:, None]
    top = lut[i0, j0, v] * (1 - fx) + lut[i0, j1, v] * fx
    bot = lut[i1, j0, v] * (1 - fx) + lut[i1, j1, v] * fx
    return Image.from_float(top * (1 - fy) + bot * fy)


class TestEnhanceContrast:
    @pytest.mark.parametrize("h, w, tiles", [
        (23, 17, 5), (40, 40, 8), (31, 64, 3), (5, 3, 8), (1, 9, 4),
        (160, 160, 8)])
    @pytest.mark.parametrize("clip", [1.0, 1.5, 2.0, math.inf])
    def test_against_tile_oracle(self, rng, h, w, tiles, clip):
        pixels = rng.integers(0, 256, size=(h, w))
        pixels[:h // 2, :w // 2] = 77  # constant tiles take the identity
        dim = (pixels * 0.2).astype(np.uint8)  # few levels, like a dim frame
        for arr in (pixels, dim):
            img = gray_image(arr)
            assert enhance_contrast(img, tiles, clip) == \
                enhance_oracle(img, tiles, clip)

    @given(small_gray, st.integers(1, 14),
           st.floats(1.0, 6.0) | st.just(math.inf))
    def test_matches_tile_oracle(self, img, tiles, clip):
        assert enhance_contrast(img, tiles, clip) == \
            enhance_oracle(img, tiles, clip)

    @given(st.integers(0, 255), st.integers(1, 4),
           st.floats(1.0, 10.0) | st.just(math.inf))
    def test_constant_fixed_point(self, value, tiles, clip):
        img = gray_image(np.full((16, 16), value))
        assert enhance_contrast(img, tiles, clip) == img

    def test_two_level_plain_equalization(self):
        # Single tile, no clipping: textbook equalization of a 16x16 image
        # with 192 pixels at 50 and 64 at 200. cdf_min = 192, so
        # 50 -> 255*(192-192)/(256-192) = 0 and 200 -> 255*(256-192)/64 = 255.
        arr = np.full((16, 16), 50, dtype=np.uint8)
        arr[:4, :] = 200
        out = enhance_contrast(gray_image(arr), tiles=1, clip_limit=math.inf)
        assert set(np.unique(out.pixels)) == {0, 255}
        assert np.all(out.pixels[arr == 50] == 0)
        assert np.all(out.pixels[arr == 200] == 255)

    @given(small_gray, st.integers(1, 14),
           st.floats(1.0, 6.0) | st.just(math.inf), st.data())
    def test_region_reads_only_its_tile_block(self, img, tiles, clip, data):
        region = any_region(data, img.width, img.height)
        block = clahe_block(img.width, img.height, tiles, region)
        assert block.x <= region.x and block.y <= region.y
        assert block.x2 >= region.x2 and block.y2 >= region.y2
        # every pixel outside the block changed; the region's result not
        scrambled = 255 - img.pixels
        scrambled[block.y:block.y2, block.x:block.x2] = \
            img.pixels[block.y:block.y2, block.x:block.x2]
        assert enhance_contrast(gray_image(scrambled), tiles, clip,
                                region) == \
            crop(enhance_contrast(img, tiles, clip), region)

    @pytest.mark.parametrize("region, tiles, block", [
        (Rect(36, 36, 88, 88), 8, Rect(20, 20, 120, 120)),
        (Rect(29, 30, 1, 1), 8, Rect(0, 20, 40, 40)),
        (Rect(0, 0, 1, 1), 8, Rect(0, 0, 40, 40)),
        (Rect(159, 0, 1, 160), 8, Rect(140, 0, 20, 160)),
        (Rect(36, 36, 88, 88), 1, Rect(0, 0, 160, 160)),
        (Rect(0, 0, 160, 160), 8, Rect(0, 0, 160, 160))])
    def test_clahe_block_at_working_size(self, region, tiles, block):
        # 160 px in 8 tiles: edges every 20 px, centers at 9.5, 29.5, ...;
        # before the first center a pixel's upper tile is tile 1 at weight
        # 0, and past the last both tiles are tile 7
        assert clahe_block(160, 160, tiles, region) == block

    @given(st.integers(1, 400), st.integers(1, 40), st.data())
    def test_axis_tiles_slice_the_whole_axis(self, size, tiles, data):
        # each coordinate's tiles and weight depend on it alone, so a
        # slice of the cached whole axis equals the axis computed over
        # start..stop-1
        start = data.draw(st.integers(0, size - 1))
        stop = data.draw(st.integers(start + 1, size))
        n = min(tiles, size)
        edges = np.arange(n + 1) * size // n
        centers = (edges[:-1] + edges[1:] - 1) / 2.0
        coords = np.arange(start, stop, dtype=np.float64)
        i0 = np.clip(np.searchsorted(centers, coords, side="right") - 1,
                     0, n - 1)
        i1 = np.minimum(i0 + 1, n - 1)
        span = centers[i1] - centers[i0]
        frac = np.clip(np.where(span > 0, (coords - centers[i0]) / np.where(
            span > 0, span, 1.0), 0.0), 0.0, 1.0)
        got = imaging._axis_tiles(size, tiles, start, stop)
        for a, b in zip(got, (edges, i0, i1, frac)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable

    def test_region_outside_image(self):
        with pytest.raises(OutOfBounds):
            enhance_contrast(gray_image(np.zeros((10, 12))), 4, 2.0,
                             Rect(9, 0, 4, 4))

    @pytest.mark.parametrize("clip", [0.5, -math.inf, math.nan])
    def test_clip_limit_below_one_is_refused(self, clip):
        with pytest.raises(ValueError, match="clip_limit"):
            enhance_contrast(gray_image(np.zeros((10, 12))), 4, clip)

    @given(small_gray, st.integers(1, 4), st.floats(1.0, 6.0))
    def test_output_range_and_shape(self, img, tiles, clip):
        out = enhance_contrast(img, tiles, clip)
        assert (out.width, out.height) == (img.width, img.height)
        assert out.pixels.min() >= 0 and out.pixels.max() <= 255


class TestPreprocess:
    def test_composition_when_enabled(self, rng):
        arr = rng.integers(0, 40, size=(20, 20, 3))
        img = Image.from_array(arr)
        cfg = imaging.PreprocessConfig(low_light="on")
        expect = enhance_contrast(
            denoise(to_grayscale(img), cfg.denoise_spatial_sigma,
                    cfg.denoise_range_sigma),
            cfg.clahe_tiles, cfg.clahe_clip_limit)
        assert preprocess(img, cfg) == expect

    def test_bright_image_auto_skips_enhancement(self, rng):
        arr = np.clip(rng.normal(200, 10, size=(20, 20)), 0, 255)
        img = Image.from_float(arr)
        cfg = imaging.PreprocessConfig(low_light="auto")
        assert preprocess(img, cfg) == denoise(
            img, cfg.denoise_spatial_sigma, cfg.denoise_range_sigma)

    def test_dark_noisy_image_gains_contrast(self, rng):
        # dim frame at working resolution: bright blob on dark ground,
        # scaled down to night-time levels, plus sensor noise
        yy, xx = np.mgrid[0:160, 0:160]
        scene = np.full((160, 160), 40.0)
        scene[((xx - 80) / 37.0) ** 2 + ((yy - 80) / 44.0) ** 2 <= 1] = 200.0
        scene *= 0.35
        img = Image.from_float(
            np.clip(scene + rng.normal(0, 8, size=scene.shape), 0, 255))
        assert float(img.pixels.mean()) < 60  # auto mode engages
        out = preprocess(img, imaging.PreprocessConfig(low_light="auto"))
        assert float(out.pixels.std()) > float(img.pixels.std())

    @settings(deadline=None)
    @given(st.data())
    def test_region_equals_crop_of_whole_frame(self, data):
        w, h = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        shape = (h, w, 3) if data.draw(st.booleans()) else (h, w)
        lo = data.draw(st.integers(0, 255))
        hi = data.draw(st.integers(lo, 255))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        img = Image.from_array(rng.integers(lo, hi + 1, size=shape))
        x = data.draw(st.just(0) | st.integers(0, w - 1))
        y = data.draw(st.just(0) | st.integers(0, h - 1))
        region = Rect(x, y, data.draw(st.just(w - x) | st.integers(1, w - x)),
                      data.draw(st.just(h - y) | st.integers(1, h - y)))
        cfg = imaging.PreprocessConfig(
            low_light=data.draw(st.sampled_from(["auto", "on", "off"])),
            low_light_threshold=data.draw(st.floats(0.0, 256.0)),
            denoise_spatial_sigma=data.draw(st.floats(0.3, 5.0)),
            denoise_range_sigma=data.draw(st.floats(1.0, 150.0)),
            clahe_tiles=data.draw(st.integers(1, 10)),
            clahe_clip_limit=data.draw(st.floats(1.0, 6.0)
                                       | st.just(math.inf)))
        assert preprocess(img, cfg, region) == \
            crop(preprocess(img, cfg), region)

    def test_bright_region_of_dim_frame_is_enhanced(self, rng):
        # the enhance decision reads the whole frame's mean, not the region's
        arr = np.full((40, 40), 10)
        arr[12:28, 12:28] = rng.integers(190, 256, size=(16, 16))
        img = gray_image(arr)
        region = Rect(12, 12, 16, 16)
        cfg = imaging.PreprocessConfig(low_light="auto")
        assert float(img.pixels.mean()) < cfg.low_light_threshold
        assert float(crop(img, region).pixels.mean()) > 180
        denoised = denoise(img, cfg.denoise_spatial_sigma,
                           cfg.denoise_range_sigma)
        enhanced = enhance_contrast(denoised, cfg.clahe_tiles,
                                    cfg.clahe_clip_limit)
        out = preprocess(img, cfg, region)
        assert out == crop(enhanced, region)
        assert out != crop(denoised, region)

    @pytest.mark.parametrize("box", [
        Rect(0, 0, 40, 40), Rect(120, 0, 40, 40), Rect(0, 120, 40, 40),
        Rect(120, 120, 40, 40), Rect(36, 36, 88, 88), Rect(29, 30, 41, 40),
        Rect(30, 29, 40, 41), Rect(20, 40, 40, 20), Rect(0, 29, 160, 2),
        Rect(29, 0, 2, 160), Rect(0, 0, 1, 1), Rect(159, 159, 1, 1),
        Rect(29, 30, 1, 1), Rect(80, 80, 1, 1), Rect(0, 0, 160, 160)],
        ids=["top-left", "top-right", "bottom-left", "bottom-right",
             "centre", "col-before-centre", "row-before-centre",
             "tile-edges", "centre-row", "centre-column", "pixel-top-left",
             "pixel-bottom-right", "pixel-at-centre", "pixel-middle",
             "whole-frame"])
    def test_working_size_region_equals_crop(self, box, rng):
        # 160x160 dim frames with 8 tiles: tile edges every 20 px, tile
        # centers at 9.5, 29.5, ..., so rows and columns 29 and 30 lie on
        # either side of a center
        cfg = imaging.PreprocessConfig(clahe_tiles=8)
        frames = [rec.image for rec in generate(SyntheticSpec(
            n_frames=2, light_level="dim", seed=3))]
        frames.append(gray_image(rng.integers(0, 90, size=(160, 160))))
        for img in frames:
            gray = to_grayscale(img)
            assert gray.width == gray.height == 160
            assert float(gray.pixels.mean()) < cfg.low_light_threshold
            assert preprocess(img, cfg, box) == \
                crop(preprocess(img, cfg), box)

    def test_centred_box_denoises_only_its_tile_block(self, monkeypatch):
        img = generate(SyntheticSpec(n_frames=1, light_level="dim",
                                     seed=3))[0].image
        box, cfg = Rect(36, 36, 88, 88), imaging.PreprocessConfig()
        expect = crop(preprocess(img, cfg), box)
        seen = {"denoise": [], "enhance_contrast": []}

        def spy(name, note):
            real = getattr(imaging, name)

            def call(image, *args):
                seen[name].append(note(image, args))
                return real(image, *args)
            return call

        monkeypatch.setattr(imaging, "denoise", spy(
            "denoise", lambda image, args: args[2]))
        monkeypatch.setattr(imaging, "enhance_contrast", spy(
            "enhance_contrast", lambda image, args: image.pixels.shape))
        assert preprocess(img, cfg, box) == expect
        # rows and columns 36..123 read tiles 1..6 (pixels 20..139)
        assert seen == {"denoise": [Rect(20, 20, 120, 120)],
                        "enhance_contrast": [(160, 160)]}

    @pytest.mark.parametrize("low_light", ["on", "off"])
    def test_region_outside_frame(self, low_light):
        img = gray_image(np.zeros((10, 12)))
        cfg = imaging.PreprocessConfig(low_light=low_light)
        for region in (Rect(-1, 0, 4, 4), Rect(9, 0, 4, 4),
                       Rect(20, 20, 2, 2)):
            with pytest.raises(OutOfBounds):
                preprocess(img, cfg, region)
